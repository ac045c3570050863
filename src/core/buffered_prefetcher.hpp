#ifndef ASD_CORE_BUFFERED_PREFETCHER_HPP
#define ASD_CORE_BUFFERED_PREFETCHER_HPP

/**
 * @file
 * The memory-controller hardware every memory-side contender shares
 * (sections 3.4-3.5, Fig. 4): the Prefetch Buffer, the Adaptive
 * Scheduling policy selector and the epoch clock that drives it. ASD
 * and the Fig. 11 baselines ("no ASD + adaptive scheduling") all
 * derive from it, so a comparison isolates the candidate-generation
 * policy itself.
 */

#include <cstdint>
#include <functional>

#include "common/stats.hpp"
#include "core/adaptive_scheduler.hpp"
#include "core/asd_config.hpp"
#include "core/prefetch_buffer.hpp"
#include "mc/prefetcher_iface.hpp"

namespace asd
{

/**
 * Shared plumbing for memory-side prefetchers: prefetch buffer,
 * adaptive scheduling, write invalidation and the epoch clock.
 * Subclasses override the candidate-generation policy and count each
 * observed read toward the epoch with countReadForEpoch().
 */
class BufferedMcPrefetcher : public MemSidePrefetcher
{
  public:
    explicit BufferedMcPrefetcher(const AsdConfig &config);

    void
    observeWrite(LineAddr line, Cycle) override
    {
        buffer_.invalidateOnWrite(line);
    }
    bool lookupBuffer(LineAddr line) override { return buffer_.consume(line); }
    bool
    bufferContains(LineAddr line) const override
    {
        return buffer_.contains(line);
    }
    void fillBuffer(LineAddr line, Cycle) override { buffer_.insert(line); }
    int schedulingPolicy() const override { return sched_.policy(); }
    void notifyPrefetchConflict(Cycle) override { sched_.notifyConflict(); }
    void tick(Cycle) override {} // the shared plumbing has no per-cycle state
    Cycle nextTickDue(Cycle) const override { return kNoCycle; }

    /**
     * Register "ms.buffer.*" and "ms.sched.*"; a subclass with
     * counters of its own overrides and calls the base.
     */
    virtual void registerStats(StatRegistry &registry) const;

    /**
     * Called once per epoch boundary, after the Adaptive Scheduling
     * policy step and the subclass's onEpochEnd(), with the boundary
     * cycle. At most one hook; installing replaces.
     */
    void
    setEpochEndHook(std::function<void(Cycle)> hook)
    {
        epoch_end_hook_ = std::move(hook);
    }

    const PrefetchBuffer &buffer() const { return buffer_; }
    const AdaptiveScheduler &scheduler() const { return sched_; }
    std::uint64_t epochsCompleted() const { return epochs_done_; }
    const AsdConfig &config() const { return config_; }

  protected:
    /**
     * Checkpoint the shared plumbing (buffer, adaptive scheduler,
     * epoch read count, epochs completed). Subclasses with policy
     * state of their own override and call the base.
     */
    void snapshot(SnapshotIo &io) override;

    /**
     * Count a read toward the epoch. The read that completes one
     * steps the scheduler, bumps epochsCompleted(), runs
     * onEpochEnd(@p now) and then the hook.
     */
    void countReadForEpoch(Cycle now);

    /** Subclass epoch-boundary work. */
    virtual void onEpochEnd(Cycle) {}

    AsdConfig config_;
    PrefetchBuffer buffer_;
    AdaptiveScheduler sched_;

  private:
    std::uint32_t epoch_reads_seen_ = 0;
    std::uint64_t epochs_done_ = 0;
    std::function<void(Cycle)> epoch_end_hook_;
};

} // namespace asd

#endif // ASD_CORE_BUFFERED_PREFETCHER_HPP
