#ifndef ASD_MC_MEMORY_CONTROLLER_HPP
#define ASD_MC_MEMORY_CONTROLLER_HPP

/**
 * @file
 * The Power5+-like memory controller (paper Figs. 1 and 4): read and
 * write reorder queues, a scheduler that moves one command per cycle
 * into the FIFO Centralized Arbiter Queue (CAQ), and a Final Scheduler
 * that arbitrates between the CAQ and the prefetcher's Low Priority
 * Queue (LPQ) before DRAM.
 */

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "dram/dram.hpp"
#include "mc/command.hpp"
#include "mc/prefetcher_iface.hpp"
#include "mc/scheduler.hpp"
#include "snapshot/snapshot.hpp"

namespace asd
{

/** Queue depths and fixed latencies of the controller. */
struct McConfig
{
    std::size_t read_queue = 8;
    std::size_t write_queue = 8;
    std::size_t caq = 3;
    std::size_t lpq = 3;
    SchedulerKind scheduler = SchedulerKind::Ahb;

    /**
     * Command decode/forward overhead before DRAM (fabric crossing,
     * address translation, SMI). With DRAM timing this lands the
     * load-to-use memory latency near the Power5+'s ~200 CPU cycles.
     */
    Cycles command_overhead = 40;

    /** Data return path from DRAM to the requester (ECC, fill). */
    Cycles return_overhead = 40;

    /** Latency of a read satisfied from the Prefetch Buffer. */
    Cycles buffer_hit_latency = 40;

    /**
     * Write-drain watermarks: when the write reorder queue reaches
     * the high watermark the controller asks the scheduler to
     * prioritize writes until it falls to the low watermark
     * (hysteresis keeps the data bus from thrashing between read and
     * write bursts).
     */
    std::size_t write_drain_high = 6;
    std::size_t write_drain_low = 2;

    /**
     * Merge demand reads onto in-flight prefetches of the same line
     * (MSHR-style). The paper's controller does not do this — a late
     * prefetch is simply a useless DRAM read — so it defaults off;
     * it exists for the what-if ablation.
     */
    bool merge_inflight_prefetch = false;
};

/**
 * The memory controller. Owners push reads/writes; read completions
 * are delivered through a callback with the id passed at enqueue.
 */
class MemoryController : public Snapshottable
{
  public:
    /** Called when a read's data is available: (id, completion cycle). */
    using ReadCallback =
        std::function<void(std::uint64_t id, Cycle done)>;

    MemoryController(const McConfig &config, Dram &dram,
                     ReadCallback on_read_done);

    /** Attach the memory-side prefetcher (may be null for NP/PS). */
    void attachPrefetcher(MemSidePrefetcher *prefetcher);

    /**
     * Arm or disarm the attached prefetcher. While disarmed the
     * controller behaves exactly as if no prefetcher were attached:
     * reads are not observed, the buffer is never probed, and the LPQ
     * stays empty. Warm-up phases run disarmed so the pre-boundary
     * machine state is independent of every prefetcher knob, which is
     * what makes warm-start snapshot reuse across ASD configurations
     * sound.
     */
    void setPrefetcherArmed(bool armed) { prefetcher_armed_ = armed; }
    bool prefetcherArmed() const { return prefetcher_armed_; }

    /** True when the read reorder queue can accept a command. */
    bool canAcceptRead() const;

    /** True when the write reorder queue can accept a command. */
    bool canAcceptWrite() const;

    /**
     * Submit a demand (or processor-side prefetch) read.
     * The Prefetch Buffer is probed first; on a hit the read is
     * squashed and completes after buffer_hit_latency.
     * @retval false when the read queue is full (caller must retry).
     */
    bool enqueueRead(LineAddr line, std::uint64_t id,
                     std::uint32_t thread, Cycle now);

    /**
     * Submit a write (L3 castout). Fire-and-forget.
     * @retval false when the write queue is full.
     */
    bool enqueueWrite(LineAddr line, Cycle now);

    /** Advance one CPU cycle. */
    void tick(Cycle now);

    /** True when no command is queued or in flight. */
    bool idle() const;

    /**
     * True when any tick could still make progress (includes pending
     * LPQ prefetches); the System steps to CPU events only while it
     * is false.
     */
    bool
    hasWork() const
    {
        return !idle() || !lpq_.empty();
    }

    /**
     * Cycles from @p now (a cycle already ticked) until the next tick
     * that can do more than count a prefetch conflict: an in-flight
     * completion, a reorder-queue move, an LPQ or CAQ-head issue, a
     * Prefetch Buffer hit at the CAQ head, the head's first conflict,
     * or the prefetcher's nextTickDue(). 1 is the next cycle; kNoCycle
     * when none is pending.
     */
    Cycles nextEventIn(Cycle now) const;

    /**
     * Stand in for the @p n ticks after @p now, all of which
     * nextEventIn(@p now) showed to be quiet: add the prefetch
     * conflicts a blocked CAQ head would have counted.
     */
    void skipQuietCycles(Cycle now, Cycles n);

    /** Register counters under @p prefix. */
    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const;

    // Accessors used by tests and the efficiency benches.
    std::uint64_t readsObserved() const { return reads_observed_.value(); }
    std::uint64_t writesObserved() const
    {
        return writes_observed_.value();
    }
    std::uint64_t bufferHits() const
    {
        return buffer_hits_entry_.value() + buffer_hits_caq_.value() +
               merged_with_prefetch_.value();
    }
    std::uint64_t mergedWithPrefetch() const
    {
        return merged_with_prefetch_.value();
    }
    std::uint64_t prefetchesMergedUseful() const
    {
        return prefetches_merged_useful_.value();
    }
    std::uint64_t prefetchesIssued() const
    {
        return prefetches_issued_.value();
    }
    std::uint64_t lpqDrops() const { return lpq_dropped_.value(); }
    std::uint64_t regularsDelayed() const
    {
        return regulars_delayed_.value();
    }
    std::size_t lpqOccupancy() const { return lpq_.size(); }
    std::size_t caqOccupancy() const { return caq_.size(); }
    std::size_t readQOccupancy() const { return read_q_.size(); }
    std::size_t writeQOccupancy() const { return write_q_.size(); }
    bool drainingWrites() const { return draining_writes_; }

    // Queue-occupancy high-water marks since the last reset, updated
    // on every enqueue (telemetry samples and resets them per epoch).
    std::size_t readQHighWater() const { return read_q_hwm_; }
    std::size_t writeQHighWater() const { return write_q_hwm_; }
    std::size_t caqHighWater() const { return caq_hwm_; }
    std::size_t lpqHighWater() const { return lpq_hwm_; }
    void resetQueueHighWater();

  protected:
    /**
     * Checkpoint the queues, in-flight commands, scheduler history and
     * counters. The attached prefetcher snapshots itself separately
     * (it is owned by the System, not the controller).
     */
    void snapshot(SnapshotIo &io) override;

  private:
    struct InFlight
    {
        Cycle done = 0;
        McCommand cmd;
        bool touches_dram = true;

        /**
         * Demand reads merged onto this in-flight prefetch: their
         * completions fire when the prefetched data arrives (the
         * hardware equivalent of an MSHR hit on the prefetch
         * machine).
         */
        std::vector<McCommand> waiters;
    };

    /** The write-drain hysteresis moveToCaq() applies next. */
    bool drainWritesNext() const;

    /** Evaluate the paper's LPQ policy @p policy at @p now. */
    bool policyAllowsLpq(int policy, Cycle now) const;

    /** Push prefetch candidates produced by the prefetcher. */
    void pushPrefetches(const std::vector<LineAddr> &lines, Cycle now);

    bool prefetchInFlight(LineAddr line) const;
    bool inLpq(LineAddr line) const;

    /** Drop a pending LPQ prefetch for @p line, if any. */
    void cancelLpqEntry(LineAddr line);

    /**
     * Try to merge a demand read onto an in-flight prefetch of the
     * same line. @retval true when merged (completion will fire when
     * the prefetch data returns).
     */
    bool mergeWithPrefetch(const McCommand &cmd);

    void moveToCaq(Cycle now);
    void issueToDram(Cycle now);
    void completeFinished(Cycle now);

    /**
     * ASD_CHECK: capacity bounds, LPQ purity, and command
     * conservation — every accepted demand read is exactly one of
     * completed / queued / in the CAQ / in flight / riding a prefetch,
     * and every write is queued, in the CAQ, or issued.
     */
    void checkInvariants() const;

    /** The attached prefetcher, or nullptr while disarmed. */
    MemSidePrefetcher *
    activePrefetcher() const
    {
        return prefetcher_armed_ ? prefetcher_ : nullptr;
    }

    McConfig config_;
    Dram &dram_;
    // asdlint:allow(snapshot-field-coverage): completion callback is wiring, re-attached by the owning System after construction
    ReadCallback on_read_done_;
    std::unique_ptr<ReorderScheduler> scheduler_;
    MemSidePrefetcher *prefetcher_ = nullptr;
    // asdlint:allow(snapshot-field-coverage): persisted in System's "sys" section, whose owner sets the warm-up arming policy
    bool prefetcher_armed_ = true;

    std::deque<McCommand> read_q_;
    std::deque<McCommand> write_q_;
    bool draining_writes_ = false;
    std::deque<McCommand> caq_;
    std::deque<McCommand> lpq_;
    std::vector<InFlight> in_flight_;
    std::uint64_t next_prefetch_id_ = 1ULL << 62;

    std::size_t read_q_hwm_ = 0;
    std::size_t write_q_hwm_ = 0;
    std::size_t caq_hwm_ = 0;
    std::size_t lpq_hwm_ = 0;

    // Conservation bookkeeping for checkInvariants(); maintained
    // unconditionally (three increments) so checks can be enabled
    // mid-run.
    std::uint64_t demand_accepted_ = 0;
    std::uint64_t demand_completed_ = 0;
    std::uint64_t writes_issued_ = 0;

    Counter reads_observed_;
    Counter writes_observed_;
    Counter buffer_hits_entry_;
    Counter buffer_hits_caq_;
    Counter prefetches_issued_;
    Counter lpq_dropped_;
    Counter regulars_delayed_;
    Counter prefetch_conflict_events_;
    Counter merged_with_prefetch_;
    Counter prefetches_merged_useful_; //!< prefetches with >=1 waiter
    Counter lpq_promoted_;
};

} // namespace asd

#endif // ASD_MC_MEMORY_CONTROLLER_HPP
