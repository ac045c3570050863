#ifndef ASD_ARENA_REGISTRY_HPP
#define ASD_ARENA_REGISTRY_HPP

/**
 * @file
 * The prefetcher zoo: one table enumerating every prefetcher the
 * simulator can field, memory-side and CPU-side, each with a stable
 * registry name, a one-line description, and the RunOptions that
 * instantiate it in its default configuration. The bake-off arena,
 * asdsim_cli's --list-prefetchers, and any future competition tooling
 * all read this table, so a prefetcher added here is automatically a
 * contender everywhere.
 */

#include <array>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/run_options_schema.hpp"

namespace asd
{

/** Which side of the memory system a contender occupies. */
enum class PrefetcherSide : std::uint8_t
{
    MemSide, //!< lives in the memory controller (MS mode)
    CpuSide, //!< lives at the cores (PS mode)
};

constexpr std::array<EnumName<PrefetcherSide>, 2>
enumNames(PrefetcherSide)
{
    return {{{PrefetcherSide::MemSide, "mem-side"},
             {PrefetcherSide::CpuSide, "cpu-side"}}};
}

/** One registered prefetcher. */
struct PrefetcherInfo
{
    /** Stable registry name ("asd", "dspatch", "ps-power5", ...). */
    std::string name;

    PrefetcherSide side;

    /** One-line description for listings and reports. */
    std::string description;

    /**
     * Options that field this prefetcher alone (mode MS for
     * memory-side entries, PS for CPU-side) with its default
     * parameters. Bake-off grids start from these and overlay only
     * workload-shaping knobs (accesses, warmup, VM), so every
     * contender runs the machine it was registered with.
     */
    RunOptions defaults;
};

/** The process-wide prefetcher table. */
class PrefetcherRegistry
{
  public:
    /** The registry (immutable, built on first use). */
    static const PrefetcherRegistry &instance();

    /** Every entry, memory-side first, in registration order. */
    const std::vector<PrefetcherInfo> &all() const;

    /** Entry by registry name; nullptr when unknown. */
    const PrefetcherInfo *find(const std::string &name) const;

    /** All registry names, in registration order. */
    std::vector<std::string> names() const;

    /** Names of one side only, in registration order. */
    std::vector<std::string> names(PrefetcherSide side) const;

    /** Print "name side description", one entry per line. */
    void print() const;

  private:
    PrefetcherRegistry();

    std::vector<PrefetcherInfo> entries_;
};

} // namespace asd

#endif // ASD_ARENA_REGISTRY_HPP
