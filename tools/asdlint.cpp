/**
 * @file
 * asdlint — the project's static-analysis gate. Lints C++ sources
 * with the per-file token rules (src/lint/rules.cpp) and the
 * cross-TU semantic rules (src/lint/semantic_rules.cpp) and fails
 * (exit 1) on any unsuppressed violation.
 *
 * Examples:
 *   asdlint src bench examples tests tools
 *   asdlint --root tests/lint_fixtures src tools
 *   asdlint --list-rules
 */

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "lint/linter.hpp"
#include "lint/semantic_rules.hpp"

namespace
{

using namespace asd;
using namespace asd::lint;

struct CliArgs
{
    std::vector<std::string> paths;
    std::string root;
    bool list_rules = false;
};

[[noreturn]] void
usage(int code)
{
    std::cout <<
        "usage: asdlint [--root DIR] [--list-rules] <file-or-dir>...\n"
        "  --root DIR            resolve paths and report them\n"
        "                        relative to DIR (default: cwd)\n"
        "  --list-rules          print the rule catalog and exit\n"
        "  --help                this text\n"
        "\n"
        "Suppress a finding in source with a trailing or preceding\n"
        "comment that names the rule and says why it is safe:\n"
        "// asdlint:allow(rule-name): why it is safe\n"
        "An allow without a reason is inert and itself a finding.\n";
    std::exit(code);
}

CliArgs
parseArgs(int argc, char **argv)
{
    CliArgs args;
    std::vector<std::string> tokens(argv + 1, argv + argc);
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const std::string &tok = tokens[i];
        if (tok == "--help" || tok == "-h")
            usage(0);
        else if (tok == "--root") {
            if (++i >= tokens.size())
                fatal("missing value after " + tok);
            args.root = tokens[i];
        } else if (tok == "--list-rules")
            args.list_rules = true;
        else if (!tok.empty() && tok[0] == '-')
            fatal("unknown argument: " + tok + " (try --help)");
        else
            args.paths.push_back(tok);
    }
    return args;
}

void
listRules()
{
    for (const Rule &rule : ruleRegistry())
        std::printf("%-24s %-8s %s\n", rule.name.c_str(),
                    severityName(rule.severity), rule.summary.c_str());
    for (const SemanticRule &rule : semanticRuleRegistry())
        std::printf("%-24s %-8s %s\n", rule.name.c_str(),
                    severityName(rule.severity), rule.summary.c_str());
}

/** @p path relative to @p root with forward slashes, for reports. */
std::string
displayPath(const std::filesystem::path &root,
            const std::string &path)
{
    std::error_code ec;
    const auto rel = std::filesystem::proximate(path, root, ec);
    if (ec || rel.empty())
        return std::filesystem::path(path).generic_string();
    return rel.generic_string();
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args = parseArgs(argc, argv);
    if (args.list_rules) {
        listRules();
        return 0;
    }
    if (args.paths.empty())
        usage(1);

    const std::filesystem::path root =
        args.root.empty() ? std::filesystem::current_path()
                          : std::filesystem::path(args.root);

    // Collect the whole tree first: the semantic rules are cross-TU,
    // so every file must be in one lintFiles() call.
    std::vector<std::pair<std::string, std::string>> files;
    for (const std::string &path : args.paths) {
        const std::string resolved =
            std::filesystem::path(path).is_absolute()
                ? path
                : (root / path).generic_string();
        for (const std::string &file : collectSources(resolved))
            files.emplace_back(displayPath(root, file), file);
    }
    const std::vector<Diagnostic> diagnostics = lintFiles(files);

    for (const Diagnostic &diag : diagnostics)
        std::fprintf(stderr, "%s:%u: %s [%s] %s\n", diag.file.c_str(),
                     diag.line, severityName(diag.severity),
                     diag.rule.c_str(), diag.message.c_str());
    std::fprintf(stderr, "asdlint: %zu file%s scanned, %zu violation%s\n",
                 files.size(), files.size() == 1 ? "" : "s",
                 diagnostics.size(), diagnostics.size() == 1 ? "" : "s");
    return diagnostics.empty() ? 0 : 1;
}
