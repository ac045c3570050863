#ifndef ASD_LINT_LINTER_HPP
#define ASD_LINT_LINTER_HPP

/**
 * @file
 * The asdlint driver: lex the sources, run the per-file token rules
 * and the cross-TU semantic rules, and honor
 * `// asdlint:allow(rule): reason` suppressions (an allow without a
 * reason is inert). Rendering the findings is the CLI's job.
 */

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lint/diagnostic.hpp"
#include "lint/rules.hpp"

namespace asd::lint
{

/** One in-memory source fed to the linter. */
struct SourceInput
{
    std::string path; //!< repo-relative, forward slashes
    std::string content;
};

/**
 * Lint a set of in-memory sources together: token rules per file,
 * then the semantic rules over the cross-TU declaration index. The
 * paths need not exist on disk (the unit tests feed fixture
 * strings).
 */
std::vector<Diagnostic> lintSources(
    const std::vector<SourceInput> &sources);

/**
 * Lint one in-memory source (a one-element lintSources(); semantic
 * rules see a single-file tree).
 */
std::vector<Diagnostic> lintSource(const std::string &path,
                                   std::string_view content);

/**
 * Lint files on disk as one tree. Each entry is (display path used
 * in diagnostics, filesystem path read). Fatal on unreadable files.
 */
std::vector<Diagnostic> lintFiles(
    const std::vector<std::pair<std::string, std::string>> &files);

/**
 * Lint a single file on disk (one-element lintFiles()).
 */
std::vector<Diagnostic> lintFile(const std::string &display_path,
                                 const std::string &fs_path);

/**
 * Recursively collect lintable sources (.hpp/.h/.cpp/.cc) under
 * @p path (file or directory), sorted for deterministic output.
 * Returned paths are filesystem paths. Directories named
 * "lint_fixtures" are pruned during recursion: the lint fixture
 * corpus contains deliberate violations and is only linted when
 * named explicitly.
 */
std::vector<std::string> collectSources(const std::string &path);

} // namespace asd::lint

#endif // ASD_LINT_LINTER_HPP
