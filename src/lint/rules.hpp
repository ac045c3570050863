#ifndef ASD_LINT_RULES_HPP
#define ASD_LINT_RULES_HPP

/**
 * @file
 * The asdlint rule pack. Each rule is a pure function over one lexed
 * source file; the registry gives the CLI and the tests a uniform way
 * to enumerate, select, and document rules.
 *
 * Rule catalog (see docs/architecture.md for the full rationale):
 *   float-in-cost-path   float/double arithmetic in scheduler and
 *                        DRAM-timing sources (must use fixed-point)
 *   raw-random           rand()/std::random_device/mt19937 outside
 *                        common/random (determinism hazard)
 *   narrowing-cast       static_cast of a cycle/address-like value to
 *                        a sub-64-bit integer (use asd::narrow<T>)
 *   layer-include        #include that points up the module layering
 *                        (e.g. src/core including src/sim)
 *   check-side-effect    ++/--/assignment inside checkThat/assert
 *                        arguments (checks must be side-effect free)
 *
 * The cross-TU semantic rules (unordered-iteration and the coverage
 * rules) live in lint/semantic_rules.hpp — they need the declaration
 * index, not just one file's tokens.
 */

#include <string>
#include <vector>

#include "lint/diagnostic.hpp"
#include "lint/lexer.hpp"

namespace asd::lint
{

/** A lexed file as seen by the rules. */
struct SourceFile
{
    std::string path; //!< repo-relative, forward slashes
    std::vector<Token> tokens;
};

/** A named, documented lint rule. */
struct Rule
{
    std::string name;
    Severity severity;
    std::string summary;
    void (*check)(const SourceFile &, std::vector<Diagnostic> &);
};

/** Every rule in the pack, in stable (alphabetical) order. */
const std::vector<Rule> &ruleRegistry();

} // namespace asd::lint

#endif // ASD_LINT_RULES_HPP
