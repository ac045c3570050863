#include "lint/linter.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/log.hpp"
#include "lint/decl_index.hpp"
#include "lint/lexer.hpp"
#include "lint/semantic_rules.hpp"

namespace asd::lint
{

namespace
{

/**
 * A suppression applies on its own line or the next one, and only
 * with a justification: an allow without a reason is inert (and
 * flagged by allow-missing-reason).
 */
bool
suppresses(const Suppression &sup, const Diagnostic &diag)
{
    if (diag.line != sup.line && diag.line != sup.line + 1)
        return false;
    if (sup.reason.empty())
        return false;
    return std::find(sup.rules.begin(), sup.rules.end(), diag.rule) !=
           sup.rules.end();
}

/** True when one of @p suppressions silences @p diag. */
bool
silenced(const std::vector<Suppression> &suppressions,
         const Diagnostic &diag)
{
    return std::any_of(suppressions.begin(), suppressions.end(),
                       [&](const Suppression &sup) {
                           return suppresses(sup, diag);
                       });
}

void
sortDiagnostics(std::vector<Diagnostic> &diagnostics)
{
    std::sort(diagnostics.begin(), diagnostics.end(),
              [](const Diagnostic &a, const Diagnostic &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
}

/** One lexed source ready for both passes. */
struct LexedSource
{
    std::string path;
    LexResult lexed;
};

/**
 * Run the token rules on one lexed file; suppressions applied.
 */
std::vector<Diagnostic>
tokenPass(const LexedSource &src)
{
    SourceFile file{src.path, src.lexed.tokens};
    std::vector<Diagnostic> raw;
    for (const Rule &rule : ruleRegistry())
        rule.check(file, raw);
    std::vector<Diagnostic> kept;
    kept.reserve(raw.size());
    for (Diagnostic &diag : raw)
        if (!silenced(src.lexed.suppressions, diag))
            kept.push_back(std::move(diag));
    return kept;
}

/**
 * Run the semantic rules over the whole tree; suppressions applied
 * per finding against the file the finding lands in.
 */
std::vector<Diagnostic>
semanticPass(const std::vector<LexedSource> &sources)
{
    std::vector<IndexedFile> files;
    files.reserve(sources.size());
    for (const LexedSource &src : sources) {
        IndexedFile f;
        f.path = src.path;
        f.tokens = src.lexed.tokens;
        f.suppressions = src.lexed.suppressions;
        files.push_back(std::move(f));
    }
    const DeclIndex index = buildDeclIndex(std::move(files));

    std::vector<Diagnostic> raw;
    for (const SemanticRule &rule : semanticRuleRegistry())
        rule.check(index, raw);
    std::vector<Diagnostic> kept;
    kept.reserve(raw.size());
    for (Diagnostic &diag : raw) {
        const IndexedFile *file = index.findFile(diag.file);
        if (!file || !silenced(file->suppressions, diag))
            kept.push_back(std::move(diag));
    }
    return kept;
}

} // namespace

std::vector<Diagnostic>
lintSources(const std::vector<SourceInput> &sources)
{
    std::vector<LexedSource> lexed;
    lexed.reserve(sources.size());
    for (const SourceInput &src : sources)
        lexed.push_back({src.path, lex(src.content)});

    std::vector<Diagnostic> all;
    for (const LexedSource &src : lexed)
        for (Diagnostic &diag : tokenPass(src))
            all.push_back(std::move(diag));
    for (Diagnostic &diag : semanticPass(lexed))
        all.push_back(std::move(diag));
    sortDiagnostics(all);
    return all;
}

std::vector<Diagnostic>
lintSource(const std::string &path, std::string_view content)
{
    return lintSources({{path, std::string(content)}});
}

std::vector<Diagnostic>
lintFiles(const std::vector<std::pair<std::string, std::string>> &files)
{
    std::vector<SourceInput> sources;
    sources.reserve(files.size());
    for (const auto &[display_path, fs_path] : files) {
        std::ifstream in(fs_path, std::ios::binary);
        if (!in)
            fatal("asdlint: cannot read " + fs_path);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        sources.push_back({display_path, buffer.str()});
    }
    return lintSources(sources);
}

std::vector<Diagnostic>
lintFile(const std::string &display_path, const std::string &fs_path)
{
    return lintFiles({{display_path, fs_path}});
}

std::vector<std::string>
collectSources(const std::string &path)
{
    namespace fs = std::filesystem;
    const auto lintable = [](const fs::path &p) {
        const std::string ext = p.extension().string();
        return ext == ".hpp" || ext == ".h" || ext == ".cpp" ||
               ext == ".cc";
    };
    std::vector<std::string> out;
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
        for (fs::recursive_directory_iterator it(path, ec), end;
             it != end && !ec; it.increment(ec)) {
            if (it->is_directory(ec) &&
                it->path().filename() == "lint_fixtures") {
                it.disable_recursion_pending();
                continue;
            }
            if (it->is_regular_file(ec) && lintable(it->path()))
                out.push_back(it->path().generic_string());
        }
    } else if (fs::is_regular_file(path, ec)) {
        out.push_back(fs::path(path).generic_string());
    } else {
        fatal("asdlint: no such file or directory: " + path);
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace asd::lint
