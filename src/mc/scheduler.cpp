#include "mc/scheduler.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace asd
{

namespace
{

/** Oldest command across both queues (fronts are the oldest). */
std::optional<SchedulerPick>
oldestOverall(const std::deque<McCommand> &reads,
              const std::deque<McCommand> &writes)
{
    if (reads.empty() && writes.empty())
        return std::nullopt;
    if (writes.empty())
        return SchedulerPick{false, 0};
    if (reads.empty())
        return SchedulerPick{true, 0};
    return reads.front().enqueued_at <= writes.front().enqueued_at
               ? SchedulerPick{false, 0}
               : SchedulerPick{true, 0};
}

} // namespace

std::optional<SchedulerPick>
InOrderScheduler::pick(const std::deque<McCommand> &reads,
                       const std::deque<McCommand> &writes,
                       const Dram &dram, Cycle now, bool drain_writes)
{
    (void)dram;
    (void)now;
    (void)drain_writes; // strict age order regardless of pressure
    return oldestOverall(reads, writes);
}

std::optional<SchedulerPick>
MemorylessScheduler::pick(const std::deque<McCommand> &reads,
                          const std::deque<McCommand> &writes,
                          const Dram &dram, Cycle now,
                          bool drain_writes)
{
    // Reads first normally; writes first while draining.
    if (drain_writes) {
        for (std::size_t i = 0; i < writes.size(); ++i)
            if (dram.canIssue(writes[i].line, now))
                return SchedulerPick{true, i};
    }
    for (std::size_t i = 0; i < reads.size(); ++i)
        if (dram.canIssue(reads[i].line, now))
            return SchedulerPick{false, i};
    for (std::size_t i = 0; i < writes.size(); ++i)
        if (dram.canIssue(writes[i].line, now))
            return SchedulerPick{true, i};

    // Nothing issuable: report the oldest command as a preference but
    // tag it not-ready; the controller must not move it to the CAQ.
    auto fallback = oldestOverall(reads, writes);
    if (fallback)
        fallback->ready = false;
    return fallback;
}

Cycle
MemorylessScheduler::pickReadyAt(const std::deque<McCommand> &reads,
                                 const std::deque<McCommand> &writes,
                                 const Dram &dram, Cycle now) const
{
    Cycle ready = kNoCycle;
    for (const auto *queue : {&reads, &writes})
        for (const McCommand &cmd : *queue)
            ready = std::min(ready, dram.issuableAt(cmd.line));
    return std::max(ready, now);
}

std::int64_t
AhbScheduler::cost(const McCommand &cmd, const Dram &dram, Cycle now,
                   bool drain_writes) const
{
    // Fixed-point: 1 unit = 1/8 cycle. Same ordering as the previous
    // floating-point form (whose terms were all multiples of 1/8),
    // with ties exact by construction.
    std::int64_t cost = 0;

    // Expected wait until the command's bank is free.
    const Cycle ready = dram.bankReadyAt(cmd.line);
    if (ready > now)
        cost += static_cast<std::int64_t>(ready - now);

    // Bank reuse against recent history causes row cycling; penalize.
    const DramCoord coord = dram.decode(cmd.line);
    for (const auto &hist : history_)
        if (hist.bank == coord.bank)
            cost += 4 * 8;

    // Read/write bus turnaround.
    if (!history_.empty() && history_.back().is_write != cmd.is_write)
        cost += 1 * 8;

    // Reads carry latency; deprioritize writes unless the
    // controller's watermark machinery wants the write queue drained.
    if (cmd.is_write && !drain_writes)
        cost += 2 * 8;

    return cost;
}

std::optional<SchedulerPick>
AhbScheduler::pick(const std::deque<McCommand> &reads,
                   const std::deque<McCommand> &writes, const Dram &dram,
                   Cycle now, bool drain_writes)
{
    if (reads.empty() && writes.empty())
        return std::nullopt;

    std::optional<SchedulerPick> best;
    std::int64_t best_cost = 0;
    Cycle best_age = 0;

    auto consider = [&](const McCommand &cmd, bool from_write,
                        std::size_t index) {
        const std::int64_t c = cost(cmd, dram, now, drain_writes);
        if (!best || c < best_cost ||
            (c == best_cost && cmd.enqueued_at < best_age)) {
            best = SchedulerPick{from_write, index};
            best_cost = c;
            best_age = cmd.enqueued_at;
        }
    };

    for (std::size_t i = 0; i < reads.size(); ++i)
        consider(reads[i], false, i);
    for (std::size_t i = 0; i < writes.size(); ++i)
        consider(writes[i], true, i);
    return best;
}

void
AhbScheduler::notifyIssued(const McCommand &cmd, const Dram &dram)
{
    history_.push_back({dram.decode(cmd.line).bank, cmd.is_write});
    if (history_.size() > kHistoryDepth)
        history_.pop_front();
}

void
AhbScheduler::snapshot(SnapshotIo &io)
{
    auto count = static_cast<std::uint32_t>(history_.size());
    io.u32(count);
    io.check(count <= kHistoryDepth, "AHB history longer than its depth");
    if (io.loading())
        history_.resize(count);
    for (HistoryEntry &entry : history_) {
        io.u32(entry.bank);
        io.b(entry.is_write);
    }
}

std::optional<SchedulerPick>
FrFcfsScheduler::pick(const std::deque<McCommand> &reads,
                      const std::deque<McCommand> &writes,
                      const Dram &dram, Cycle now, bool drain_writes)
{
    std::optional<SchedulerPick> best;
    int best_class = -1; // ready row hit > ready > queued (+drain)
    Cycle best_age = 0;

    auto consider = [&](const McCommand &cmd, bool from_write,
                        std::size_t index) {
        const bool ready = dram.canIssue(cmd.line, now);
        int cls = ready ? (dram.rowOpen(cmd.line) ? 4 : 2) : 0;
        if (drain_writes && from_write)
            cls += 1;
        if (cls > best_class ||
            (cls == best_class && cmd.enqueued_at < best_age)) {
            best = SchedulerPick{from_write, index};
            best_class = cls;
            best_age = cmd.enqueued_at;
        }
    };
    for (std::size_t i = 0; i < reads.size(); ++i)
        consider(reads[i], false, i);
    for (std::size_t i = 0; i < writes.size(); ++i)
        consider(writes[i], true, i);
    return best;
}

std::unique_ptr<ReorderScheduler>
makeScheduler(SchedulerKind kind)
{
    switch (kind) {
      case SchedulerKind::InOrder:
        return std::make_unique<InOrderScheduler>();
      case SchedulerKind::Memoryless:
        return std::make_unique<MemorylessScheduler>();
      case SchedulerKind::Ahb:
        return std::make_unique<AhbScheduler>();
      case SchedulerKind::FrFcfs:
        return std::make_unique<FrFcfsScheduler>();
    }
    panic("unknown scheduler kind");
}

} // namespace asd
