#ifndef ASD_COMMON_STATS_HPP
#define ASD_COMMON_STATS_HPP

/**
 * @file
 * A light statistics registry. Components own Counter objects that are
 * registered under hierarchical dotted names; the registry can dump
 * everything for reports and tests.
 */

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace asd
{

/** A named monotonically increasing 64-bit counter. */
class Counter
{
  public:
    Counter() = default;

    void inc(std::uint64_t by = 1) { value_ += by; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

    /**
     * Overwrite the count (checkpoint restore only — normal updates
     * go through inc() so counters stay monotone within a run).
     */
    void restore(std::uint64_t value) { value_ = value; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Registry mapping dotted stat names to counters owned elsewhere. The
 * registry never owns counters; components register their members and
 * must outlive the registry's users.
 */
class StatRegistry
{
  public:
    /** Register @p counter under @p name; duplicate names panic. */
    void add(const std::string &name, const Counter &counter);

    /** Value of a registered counter; unknown names panic. */
    std::uint64_t value(const std::string &name) const;

    /** True if @p name is registered. */
    bool has(const std::string &name) const;

    /** The counter registered as @p name, or null. */
    const Counter *find(const std::string &name) const;

    /**
     * The registered counters a stat spec names: '+' joins names, and
     * a "t*" in a name stands for t0, t1, ... up to the first thread
     * not registered. Unregistered names are skipped.
     */
    std::vector<const Counter *> findAll(std::string_view spec) const;

    /** Sum of the counters findAll(@p spec) returns (0 if none). */
    std::uint64_t sum(std::string_view spec) const;

    /** All (name, value) pairs sorted by name. */
    std::vector<std::pair<std::string, std::uint64_t>> dump() const;

  private:
    std::map<std::string, const Counter *> counters_;
};

/** 100 * @p part / @p whole, or 0 when @p whole is 0. */
inline double
percentOf(std::uint64_t part, std::uint64_t whole)
{
    return whole == 0 ? 0.0
                      : 100.0 * static_cast<double>(part) /
                            static_cast<double>(whole);
}

/** The names a stat spec joins with '+' (none for an empty spec). */
std::vector<std::string> statNames(std::string_view spec);

} // namespace asd

#endif // ASD_COMMON_STATS_HPP
