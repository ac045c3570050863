#ifndef ASD_COMMON_CLI_HPP
#define ASD_COMMON_CLI_HPP

/**
 * @file
 * Table-driven command lines for the tools: a flag is a name, a value
 * placeholder, a help line and an apply function; one loop applies
 * argv to a flag table and one formatter renders --help from it.
 * Values are checked, never guessed: signs, blanks, trailing text,
 * overflow and out-of-range numbers are errors (no atoi()).
 */

#include <charconv>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace asd
{

/** Why a value was rejected; nullopt = accepted. */
using CliError = std::optional<std::string>;

struct CliFlag
{
    std::string name;    //!< e.g. "--bench"
    std::string metavar; //!< value placeholder; empty = takes no value
    std::string help;
    std::function<CliError(const std::string &value)> apply;
};

/** A plain decimal number in [min, max]; @p out is set only if so. */
template <typename T>
CliError
parseNumber(std::string_view text, T min, T max, T &out)
{
    T v{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (text.empty() || ec != std::errc() || ptr != end)
        return "expected a number, got '" + std::string(text) + "'";
    if (!(v >= min && v <= max)) { // also rejects NaN
        char lo[32];
        char hi[32];
        return std::string(text) + " is outside [" +
               std::string(lo, std::to_chars(lo, lo + 32, min).ptr) +
               ", " +
               std::string(hi, std::to_chars(hi, hi + 32, max).ptr) + "]";
    }
    out = v;
    return std::nullopt;
}

/** Comma-separated items; an empty list or empty item is an error. */
CliError splitList(std::string_view text,
                   std::vector<std::string> &out);

/** --help text: @p header, then one aligned entry per flag. */
std::string cliUsage(std::string_view header,
                     const std::vector<CliFlag> &flags);

/**
 * Apply @p args to @p flags in order; "--help"/"-h" print the usage
 * and exit 0. Returns the first error: an unknown argument, a missing
 * or empty value, or a value the flag rejected.
 */
CliError applyCliArgs(const std::vector<std::string> &args,
                      const std::vector<CliFlag> &flags,
                      std::string_view header);

/** applyCliArgs() over argv[1..]; fatal() on an error. */
void parseCliOrDie(int argc, char **argv,
                   const std::vector<CliFlag> &flags,
                   std::string_view header);

/** A flag that sets @p target to true. */
CliFlag switchFlag(std::string name, std::string help, bool &target);

/** A flag that stores its value in @p target. */
CliFlag textFlag(std::string name, std::string metavar,
                 std::string help, std::string &target);

/** A flag that stores a number in [min, max] in @p target. */
template <typename T, typename Target>
CliFlag
numberFlag(std::string name, std::string help, Target &target,
           T min = 0, T max = std::numeric_limits<T>::max())
{
    return {std::move(name), "N", std::move(help),
            [&target, min, max](const std::string &text) {
                T v{};
                CliError error = parseNumber(text, min, max, v);
                if (!error)
                    target = v;
                return error;
            }};
}

} // namespace asd

#endif // ASD_COMMON_CLI_HPP
