#ifndef ASD_CACHE_HIERARCHY_HPP
#define ASD_CACHE_HIERARCHY_HPP

/**
 * @file
 * The Power5+-like three-level cache hierarchy: write-through L1D,
 * shared write-back L2, and a large off-chip L3. Inclusive: an L3
 * eviction back-invalidates L2/L1; L2 victims merge their dirty bits
 * into L3; dirty L3 victims become memory-controller writes.
 */

#include <vector>

#include "cache/cache.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace asd
{

/**
 * Sizes/latencies for the three levels. L1/L2 are the paper's section
 * 4.2 values. The L3 is a victim cache of the L2, like the real
 * Power5 L3; the paper's 36 MB is scaled to 4 MB to match the
 * synthetic traces, which are orders of magnitude shorter than the
 * paper's sampled executions (standard cache-scaling practice for
 * sampled simulation; an unscaled L3 would never be exercised and
 * would suppress all writeback traffic).
 */
struct HierarchyConfig
{
    CacheConfig l1{32 * 1024, 4, 128};
    CacheConfig l2{1920 * 1024, 10, 128};
    CacheConfig l3{4 * 1024 * 1024, 12, 128};
    Cycles lat_l1 = 2;
    Cycles lat_l2 = 13;
    Cycles lat_l3 = 87;
};

/** Where a demand access was satisfied. */
enum class HitLevel : std::uint8_t { L1, L2, L3, Memory };

/** Outcome of a demand access. */
struct AccessResult
{
    HitLevel level = HitLevel::L1;
    Cycles latency = 0;      //!< meaningful unless level == Memory
    bool needs_memory = false;
};

/**
 * Tag-level model of the cache stack. L1 is kept a subset of L2; the
 * L3 is an exclusive victim cache (hits promote back into L2, and L3
 * evictions never back-invalidate). The owner drains generated
 * writebacks into the memory controller every cycle.
 */
class CacheHierarchy : public Snapshottable
{
  public:
    explicit CacheHierarchy(const HierarchyConfig &config);

    /**
     * Demand load/store lookup. Hits pull the line into upper levels
     * (an L3 hit promotes the victim copy back into L2). Misses to
     * memory do NOT allocate; call fill() when data returns.
     */
    AccessResult access(LineAddr line, bool is_store);

    /**
     * Install @p line on a returning memory read (demand or RFO).
     * @param dirty line returns for a store (RFO).
     */
    void fill(LineAddr line, bool dirty);

    /** Install a processor-side prefetch into L1 (and below). */
    void fillPrefetchL1(LineAddr line);

    /** Install a processor-side prefetch into L2 (and L3). */
    void fillPrefetchL2(LineAddr line);

    /**
     * Lines written back to memory since the last drain. The result
     * is valid until the next drain; the two buffers swap roles, so
     * neither gives up its capacity.
     */
    const std::vector<LineAddr> &drainWritebacks();

    /** Tag probe at one level (tests/prefetchers). */
    bool probe(HitLevel level, LineAddr line) const;

    /** Register all per-level counters. */
    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const;

    const SetAssocCache &l1() const { return l1_; }
    const SetAssocCache &l2() const { return l2_; }
    const SetAssocCache &l3() const { return l3_; }
    const HierarchyConfig &config() const { return config_; }

  protected:
    void snapshot(SnapshotIo &io) override;

  private:
    /** Install an L2 victim in L3; dirty L3 victims become writes. */
    void insertL3(LineAddr line, bool dirty, bool prefetch);

    /** Insert into L2; the displaced victim falls into the L3. */
    void insertL2(LineAddr line, bool dirty, bool prefetch);

    /** Insert into L1 (write-through: L1 lines are never dirty). */
    void insertL1(LineAddr line, bool prefetch);

    HierarchyConfig config_;
    SetAssocCache l1_;
    SetAssocCache l2_;
    SetAssocCache l3_;
    std::vector<LineAddr> writebacks_;
    // asdlint:allow(snapshot-field-coverage): the last drain's lines, handed to the caller at once; writebacks_ holds every undrained one
    std::vector<LineAddr> drained_;
    Counter writebacks_generated_;
};

} // namespace asd

#endif // ASD_CACHE_HIERARCHY_HPP
