#ifndef ASD_COMMON_LOG_HPP
#define ASD_COMMON_LOG_HPP

/**
 * @file
 * gem5-style status/error helpers: panic() for internal invariant
 * violations, fatal() for user-caused configuration errors, warn() for
 * status messages that never stop the simulation.
 *
 * The rule for checks: a check that passes costs one branch. So
 * panicIfNot() (and checkThat() in common/check.hpp) take a string
 * literal, never a std::string, and the message becomes a
 * std::string only on the failure path. A message that needs runtime
 * values is built only once the check has failed:
 *
 *     if (!inserted)
 *         panic("duplicate stat name: " + name);
 *
 * There is deliberately no std::string overload, so an eagerly built
 * message does not compile.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

namespace asd
{

namespace detail
{

[[noreturn]] inline void
die(const char *kind, const std::string &msg, int code)
{
    std::fprintf(stderr, "%s: %s\n", kind, msg.c_str());
    if (code < 0)
        std::abort();
    std::exit(code);
}

} // namespace detail

/**
 * Abort on an internal simulator bug: a condition that must never
 * happen regardless of user input.
 */
[[noreturn]] inline void
panic(const std::string &msg)
{
    detail::die("panic", msg, -1);
}

/**
 * Exit on a user error (bad configuration, invalid arguments) that
 * makes continuing impossible.
 */
[[noreturn]] inline void
fatal(const std::string &msg)
{
    detail::die("fatal", msg, 1);
}

/** Alert the user to suspicious but survivable conditions. */
inline void
warn(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

/** panic() unless @p cond holds; @p msg is a string literal. */
inline void
panicIfNot(bool cond, const char *msg)
{
    if (!cond) [[unlikely]]
        panic(msg);
}

} // namespace asd

#endif // ASD_COMMON_LOG_HPP
