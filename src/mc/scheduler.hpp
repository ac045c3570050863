#ifndef ASD_MC_SCHEDULER_HPP
#define ASD_MC_SCHEDULER_HPP

/**
 * @file
 * Reorder-queue schedulers: the stage that picks which command moves
 * from the read/write reorder queues into the Centralized Arbiter
 * Queue each cycle. Three variants from the paper's section 5.3:
 * in-order, memoryless, and an approximation of the Adaptive
 * History-Based (AHB) scheduler of Hur & Lin [9, 10].
 */

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>

#include "dram/dram.hpp"
#include "mc/command.hpp"
#include "snapshot/snapshot.hpp"

namespace asd
{

/** Which reorder-queue scheduler the memory controller uses. */
enum class SchedulerKind : std::uint8_t
{
    InOrder,
    Memoryless,
    Ahb,
    FrFcfs, //!< first-ready, first-come-first-served (row hits first)
};

/** A scheduler's choice: queue (read/write) and index within it. */
struct SchedulerPick
{
    bool from_write_queue = false;
    std::size_t index = 0;

    /**
     * False when the scheduler found nothing issuable and is only
     * reporting its preference (Memoryless with every bank busy). The
     * controller leaves a not-ready pick in its reorder queue instead
     * of moving it into the FIFO CAQ, where it would block younger
     * ready commands behind a busy bank.
     */
    bool ready = true;
};

/**
 * Strategy interface for reorder-queue arbitration. Implementations
 * are stateless or keep only their own history; the memory controller
 * owns the queues. Most schedulers keep Snapshottable's empty
 * snapshot(); AHB overrides it to carry its issue history across a
 * save/restore.
 */
class ReorderScheduler : public Snapshottable
{
  public:
    virtual ~ReorderScheduler() = default;

    /**
     * Choose the next command to forward to the CAQ.
     * @param drain_writes the controller's write-drain watermark
     *        machinery wants the write queue emptied; schedulers
     *        should prioritize writes while it is set.
     * @return std::nullopt when both queues are empty.
     */
    virtual std::optional<SchedulerPick>
    pick(const std::deque<McCommand> &reads,
         const std::deque<McCommand> &writes, const Dram &dram,
         Cycle now, bool drain_writes) = 0;

    /** Inform the scheduler that its last pick was forwarded. */
    virtual void
    notifyIssued(const McCommand &cmd, const Dram &dram)
    {
        (void)cmd;
        (void)dram;
    }

    /**
     * Earliest cycle, not before @p now, at which pick() on these
     * non-empty queues is ready, assuming no command issues
     * meanwhile (the controller's next-event bound). The default,
     * @p now, suits every scheduler whose pick is always ready.
     */
    virtual Cycle
    pickReadyAt(const std::deque<McCommand> &reads,
                const std::deque<McCommand> &writes, const Dram &dram,
                Cycle now) const
    {
        (void)reads;
        (void)writes;
        (void)dram;
        return now;
    }
};

/** Strict arrival order across both queues. */
class InOrderScheduler : public ReorderScheduler
{
  public:
    std::optional<SchedulerPick>
    pick(const std::deque<McCommand> &reads,
         const std::deque<McCommand> &writes, const Dram &dram,
         Cycle now, bool drain_writes) override;
};

/**
 * Bank-aware but history-free: prefers the oldest command whose bank
 * can accept a command now, reads before writes. When nothing is
 * issuable the oldest command overall is returned tagged not-ready so
 * the controller keeps it schedulable instead of parking it in the
 * CAQ against a busy bank.
 */
class MemorylessScheduler : public ReorderScheduler
{
  public:
    std::optional<SchedulerPick>
    pick(const std::deque<McCommand> &reads,
         const std::deque<McCommand> &writes, const Dram &dram,
         Cycle now, bool drain_writes) override;

    /** Ready once any queued command's bank can accept it. */
    Cycle pickReadyAt(const std::deque<McCommand> &reads,
                      const std::deque<McCommand> &writes,
                      const Dram &dram, Cycle now) const override;
};

/**
 * Approximation of the Adaptive History-Based scheduler: scores each
 * candidate by expected bank-conflict cost against recently issued
 * commands, read/write switch cost, and queue-pressure balance, then
 * picks the cheapest (oldest on ties). Costs are integer fixed-point
 * in 1/8-cycle units so equal-cost ties compare exactly — the
 * floating-point form relied on `double == double`, which is fragile
 * the moment a cost term stops being a multiple of 1/8.
 */
class AhbScheduler : public ReorderScheduler
{
  public:
    std::optional<SchedulerPick>
    pick(const std::deque<McCommand> &reads,
         const std::deque<McCommand> &writes, const Dram &dram,
         Cycle now, bool drain_writes) override;

    void notifyIssued(const McCommand &cmd, const Dram &dram) override;

  protected:
    void snapshot(SnapshotIo &io) override;

  private:
    struct HistoryEntry
    {
        std::uint32_t bank = 0;
        bool is_write = false;
    };

    std::int64_t cost(const McCommand &cmd, const Dram &dram,
                      Cycle now, bool drain_writes) const;

    static constexpr std::size_t kHistoryDepth = 4;
    std::deque<HistoryEntry> history_;
};

/**
 * First-ready FCFS (Rixner et al.): among commands whose bank can
 * accept a column command to the currently open row (row hits), pick
 * the oldest; otherwise the oldest ready command; otherwise the
 * oldest overall. The classic throughput-oriented baseline between
 * in-order and history-based scheduling.
 */
class FrFcfsScheduler : public ReorderScheduler
{
  public:
    std::optional<SchedulerPick>
    pick(const std::deque<McCommand> &reads,
         const std::deque<McCommand> &writes, const Dram &dram,
         Cycle now, bool drain_writes) override;
};

/** Factory for the configured scheduler kind. */
std::unique_ptr<ReorderScheduler> makeScheduler(SchedulerKind kind);

} // namespace asd

#endif // ASD_MC_SCHEDULER_HPP
