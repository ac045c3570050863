#ifndef ASD_COMMON_CHECK_HPP
#define ASD_COMMON_CHECK_HPP

/**
 * @file
 * Cross-component invariant checking (the ASD_CHECK layer). The
 * expensive structural asserts — LHT monotonicity, Stream Filter slot
 * uniqueness, prefetch-buffer occupancy, MC queue conservation — are
 * guarded by a single process-wide runtime flag so one binary serves
 * both roles: fast by default, self-verifying when asked.
 *
 * The flag's initial value comes from (in priority order):
 *  1. the ASD_CHECK CMake option (compiles the default to on),
 *  2. the ASD_CHECK environment variable ("1"/anything but "0"),
 *  3. off.
 * Tests flip it locally with ScopedChecks; a violation panics (aborts)
 * exactly like any other internal simulator bug.
 */

#include <string>

#include "common/log.hpp"

namespace asd
{

/** True when cross-component invariant checking is active. */
bool checksEnabled();

/**
 * Force the flag (tests, harnesses).
 * @return the previous value.
 */
bool setChecksEnabled(bool on);

/** RAII flag override for tests. */
class ScopedChecks
{
  public:
    explicit ScopedChecks(bool on) : prev_(setChecksEnabled(on)) {}
    ~ScopedChecks() { setChecksEnabled(prev_); }
    ScopedChecks(const ScopedChecks &) = delete;
    ScopedChecks &operator=(const ScopedChecks &) = delete;

  private:
    bool prev_;
};

/**
 * panic() unless @p cond holds — only called under checksEnabled();
 * callers wrap whole scans in `if (checksEnabled())` so the unchecked
 * path pays one branch. @p msg is a string literal: like panicIfNot()
 * (common/log.hpp), a passing check builds no message.
 */
inline void
checkThat(bool cond, const char *msg)
{
    if (!cond) [[unlikely]]
        panic(std::string("ASD_CHECK: ") + msg);
}

} // namespace asd

#endif // ASD_COMMON_CHECK_HPP
