#ifndef ASD_LINT_DIAGNOSTIC_HPP
#define ASD_LINT_DIAGNOSTIC_HPP

/**
 * @file
 * The lint diagnostic record shared by the rules, the linter driver,
 * and the asdlint CLI.
 */

#include <cstdint>
#include <string>

namespace asd::lint
{

/** How bad a finding is; both fail the lint gate unless suppressed. */
enum class Severity : std::uint8_t
{
    Warning,
    Error,
};

/** @return "warning" or "error". */
inline const char *
severityName(Severity severity)
{
    return severity == Severity::Error ? "error" : "warning";
}

/** One finding at a file:line, attributed to a named rule. */
struct Diagnostic
{
    std::string file; //!< repo-relative path, forward slashes
    std::uint32_t line = 0;
    std::string rule;
    Severity severity = Severity::Error;
    std::string message;

    /**
     * Semantic anchor, e.g. "PhaseDetector::window_" for a member
     * finding or "writeJson" for a function finding. Empty for plain
     * token-rule diagnostics. The CLI does not print it; tests use
     * it to check which symbol a finding names.
     */
    std::string symbol;
};

} // namespace asd::lint

#endif // ASD_LINT_DIAGNOSTIC_HPP
