#ifndef ASD_CACHE_CACHE_HPP
#define ASD_CACHE_CACHE_HPP

/**
 * @file
 * Generic set-associative tag store with true-LRU replacement. Only
 * tags and per-line flags are modeled; the simulator never carries
 * data payloads.
 */

#include <cstdint>
#include <optional>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "snapshot/snapshot.hpp"

namespace asd
{

/** Geometry of one cache level. */
struct CacheConfig
{
    std::uint64_t size_bytes = 32 * 1024;
    std::uint32_t ways = 4;
    std::uint32_t line_bytes = 128;

    std::uint64_t
    sets() const
    {
        return size_bytes / (static_cast<std::uint64_t>(ways) *
                             line_bytes);
    }
};

/** A line evicted by an insertion. */
struct Eviction
{
    LineAddr line = 0;
    bool dirty = false;
    bool was_prefetch = false; //!< line was prefetched, never used
};

/**
 * Tag store for one cache level. Lines are identified by their global
 * line address (byte address >> log2(line size)); set index and tag
 * derive from it.
 */
class SetAssocCache : public Snapshottable
{
  public:
    explicit SetAssocCache(const CacheConfig &config);

    /**
     * Demand lookup. On a hit the line moves to MRU; a hit on a
     * prefetched line clears the prefetch flag and counts it useful.
     * @param mark_dirty also set the dirty bit (stores).
     * @retval true on hit.
     */
    bool access(LineAddr line, bool mark_dirty);

    /** Tag-only probe with no LRU/flag side effects. */
    bool probe(LineAddr line) const;

    /**
     * Insert @p line at MRU.
     * @param dirty initial dirty state.
     * @param prefetch line arrives from a prefetcher (not yet used).
     * @return the victim, if a valid line was displaced.
     */
    std::optional<Eviction> insert(LineAddr line, bool dirty,
                                   bool prefetch = false);

    /**
     * Remove @p line if resident.
     * @return the line's eviction record when it was resident.
     */
    std::optional<Eviction> invalidate(LineAddr line);

    /** Register hit/miss counters under @p prefix in @p registry. */
    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const;

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t prefetchHits() const { return prefetch_hits_.value(); }

    /** Valid lines right now (O(capacity) scan; checks/telemetry). */
    std::uint64_t validLines() const;

    /** One resident line, as reported by linesByRecency(). */
    struct ResidentLine
    {
        LineAddr line = 0;
        bool dirty = false;
        bool prefetched = false;
    };

    /**
     * Every resident line, oldest first by global LRU stamp (stamps
     * are unique, so the order is total). Reconfiguration rebuilds a
     * resized store by re-inserting these in order, which preserves
     * the recency ranking across the resize.
     */
    std::vector<ResidentLine> linesByRecency() const;

    const CacheConfig &config() const { return config_; }

  protected:
    void snapshot(SnapshotIo &io) override;

  private:
    struct Way
    {
        LineAddr line = 0;
        std::uint64_t lru = 0; //!< larger = more recent
        bool valid = false;
        bool dirty = false;
        bool prefetched = false;
    };

    std::size_t setIndex(LineAddr line) const;
    Way *find(LineAddr line);
    const Way *find(LineAddr line) const;

    CacheConfig config_;
    std::vector<Way> ways_; //!< sets x ways, row-major
    std::uint64_t clock_ = 0;

    Counter hits_;
    Counter misses_;
    Counter prefetch_hits_; //!< demand hits on prefetched lines
};

} // namespace asd

#endif // ASD_CACHE_CACHE_HPP
