#include "mc/memory_controller.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/log.hpp"

namespace asd
{

MemoryController::MemoryController(const McConfig &config, Dram &dram,
                                   ReadCallback on_read_done)
    : config_(config),
      dram_(dram),
      on_read_done_(std::move(on_read_done)),
      scheduler_(makeScheduler(config.scheduler))
{
    panicIfNot(config_.caq > 0, "MemoryController: CAQ must be nonempty");
    panicIfNot(static_cast<bool>(on_read_done_),
               "MemoryController: read callback required");
}

void
MemoryController::attachPrefetcher(MemSidePrefetcher *prefetcher)
{
    prefetcher_ = prefetcher;
}

bool
MemoryController::canAcceptRead() const
{
    return read_q_.size() < config_.read_queue;
}

bool
MemoryController::canAcceptWrite() const
{
    return write_q_.size() < config_.write_queue;
}

bool
MemoryController::prefetchInFlight(LineAddr line) const
{
    for (const auto &flight : in_flight_)
        if (flight.cmd.is_prefetch && flight.cmd.line == line)
            return true;
    return false;
}

bool
MemoryController::inLpq(LineAddr line) const
{
    for (const auto &cmd : lpq_)
        if (cmd.line == line)
            return true;
    return false;
}

void
MemoryController::cancelLpqEntry(LineAddr line)
{
    for (auto it = lpq_.begin(); it != lpq_.end(); ++it) {
        if (it->line == line) {
            lpq_.erase(it);
            lpq_promoted_.inc();
            return;
        }
    }
}

bool
MemoryController::mergeWithPrefetch(const McCommand &cmd)
{
    for (auto &flight : in_flight_) {
        if (flight.cmd.is_prefetch && flight.cmd.line == cmd.line) {
            flight.waiters.push_back(cmd);
            merged_with_prefetch_.inc();
            return true;
        }
    }
    return false;
}

void
MemoryController::pushPrefetches(const std::vector<LineAddr> &lines,
                                 Cycle now)
{
    MemSidePrefetcher *const prefetcher = activePrefetcher();
    for (const LineAddr line : lines) {
        if (lpq_.size() >= config_.lpq) {
            lpq_dropped_.inc();
            continue;
        }
        // Skip prefetches whose data is already buffered or being
        // fetched; they would only waste DRAM bandwidth.
        if (inLpq(line) || prefetchInFlight(line) ||
            (prefetcher && prefetcher->bufferContains(line))) {
            continue;
        }
        McCommand cmd;
        cmd.line = line;
        cmd.id = next_prefetch_id_++;
        cmd.enqueued_at = now;
        cmd.is_prefetch = true;
        lpq_.push_back(cmd);
        lpq_hwm_ = std::max(lpq_hwm_, lpq_.size());
    }
}

bool
MemoryController::enqueueRead(LineAddr line, std::uint64_t id,
                              std::uint32_t thread, Cycle now)
{
    // Probe the Prefetch Buffer before anything else: a hit squashes
    // the DRAM access and needs no queue slot. The probe consumes the
    // entry only on a hit, so a rejected (queue-full) read has no
    // side effects and can be retried.
    MemSidePrefetcher *const prefetcher = activePrefetcher();
    const bool buffer_hit = prefetcher && prefetcher->lookupBuffer(line);

    // A demand read matching an in-flight prefetch rides that
    // prefetch's completion instead of re-fetching the line (MSHR-
    // style merge); it needs no reorder-queue slot either.
    McCommand merged_cmd;
    merged_cmd.line = line;
    merged_cmd.id = id;
    merged_cmd.thread = thread;
    merged_cmd.enqueued_at = now;
    const bool merged = !buffer_hit && prefetcher &&
                        config_.merge_inflight_prefetch &&
                        mergeWithPrefetch(merged_cmd);

    if (!buffer_hit && !merged && !canAcceptRead())
        return false;

    // The Stream Filter observes every read accepted into the
    // controller, whether or not the Prefetch Buffer satisfied it
    // (Fig. 4: reads fan out to both paths).
    reads_observed_.inc();
    std::vector<LineAddr> candidates;
    if (prefetcher)
        candidates = prefetcher->observeRead(line, thread, now);

    if (buffer_hit) {
        buffer_hits_entry_.inc();
        InFlight flight;
        flight.done = now + config_.buffer_hit_latency;
        flight.cmd = merged_cmd;
        flight.touches_dram = false;
        in_flight_.push_back(flight);
        pushPrefetches(candidates, now);
        ++demand_accepted_;
        return true;
    }
    if (merged) {
        pushPrefetches(candidates, now);
        ++demand_accepted_;
        return true;
    }

    // A prefetch still waiting in the LPQ is superseded by the read
    // itself (demand or processor-side prefetch). Unlike the in-flight
    // merge, this CAM check over the LPQ saves the wasted DRAM access
    // before it happens.
    if (prefetcher)
        cancelLpqEntry(line);

    McCommand cmd;
    cmd.line = line;
    cmd.id = id;
    cmd.thread = thread;
    cmd.enqueued_at = now;
    read_q_.push_back(cmd);
    read_q_hwm_ = std::max(read_q_hwm_, read_q_.size());
    pushPrefetches(candidates, now);
    ++demand_accepted_;
    return true;
}

bool
MemoryController::enqueueWrite(LineAddr line, Cycle now)
{
    if (!canAcceptWrite())
        return false;
    writes_observed_.inc();
    if (MemSidePrefetcher *const prefetcher = activePrefetcher())
        prefetcher->observeWrite(line, now);
    McCommand cmd;
    cmd.line = line;
    cmd.is_write = true;
    cmd.enqueued_at = now;
    write_q_.push_back(cmd);
    write_q_hwm_ = std::max(write_q_hwm_, write_q_.size());
    return true;
}

bool
MemoryController::policyAllowsLpq(int policy, Cycle now) const
{
    if (lpq_.empty())
        return false;
    switch (policy) {
      case 1:
        return caq_.empty() && read_q_.empty() && write_q_.empty();
      case 2: {
        if (!caq_.empty())
            return false;
        for (const auto &cmd : read_q_)
            if (dram_.canIssue(cmd.line, now))
                return false;
        for (const auto &cmd : write_q_)
            if (dram_.canIssue(cmd.line, now))
                return false;
        return true;
      }
      case 3:
        return caq_.empty();
      case 4:
        return caq_.size() <= 1 && lpq_.size() >= config_.lpq;
      case 5:
        return caq_.empty() ||
               lpq_.front().enqueued_at < caq_.front().enqueued_at;
      default:
        return false;
    }
}

bool
MemoryController::drainWritesNext() const
{
    if (write_q_.size() >= config_.write_drain_high)
        return true;
    if (write_q_.size() <= config_.write_drain_low)
        return false;
    return draining_writes_;
}

void
MemoryController::moveToCaq(Cycle now)
{
    if (caq_.size() >= config_.caq)
        return;
    draining_writes_ = drainWritesNext();
    const auto pick = scheduler_->pick(read_q_, write_q_, dram_, now,
                                       draining_writes_);
    // A not-ready pick is only the scheduler's preference (its bank
    // cannot accept a command). The FIFO CAQ issues strictly in
    // order, so parking it there would block younger ready commands;
    // leave it in the reorder queue where it stays schedulable.
    if (!pick || !pick->ready)
        return;
    auto &queue = pick->from_write_queue ? write_q_ : read_q_;
    panicIfNot(pick->index < queue.size(),
               "scheduler picked an out-of-range command");
    caq_.push_back(queue[pick->index]);
    caq_hwm_ = std::max(caq_hwm_, caq_.size());
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(pick->index));
}

void
MemoryController::issueToDram(Cycle now)
{
    MemSidePrefetcher *const prefetcher = activePrefetcher();
    const int policy = prefetcher ? prefetcher->schedulingPolicy() : 0;
    if (prefetcher && policyAllowsLpq(policy, now) &&
        dram_.canIssue(lpq_.front().line, now)) {
        McCommand cmd = lpq_.front();
        lpq_.pop_front();
        const Cycle done = dram_.issue(
            cmd.line, false, true, now + config_.command_overhead);
        prefetches_issued_.inc();
        InFlight flight;
        flight.done = done;
        flight.cmd = cmd;
        in_flight_.push_back(flight);
        return;
    }

    if (caq_.empty())
        return;
    McCommand &head = caq_.front();

    // Second Prefetch Buffer check: the data may have arrived while
    // the read sat in the CAQ.
    if (!head.is_write && prefetcher &&
        prefetcher->lookupBuffer(head.line)) {
        buffer_hits_caq_.inc();
        InFlight flight;
        flight.done = now + config_.return_overhead;
        flight.cmd = head;
        flight.touches_dram = false;
        in_flight_.push_back(flight);
        caq_.pop_front();
        return;
    }

    if (!dram_.canIssue(head.line, now)) {
        // Adaptive Scheduling feedback: regular command blocked by a
        // bank still busy with a previously issued prefetch.
        if (dram_.occupant(head.line, now) == BankOccupant::Prefetch) {
            prefetch_conflict_events_.inc();
            if (!head.delayed_by_prefetch) {
                head.delayed_by_prefetch = true;
                regulars_delayed_.inc();
                if (prefetcher)
                    prefetcher->notifyPrefetchConflict(now);
            }
        }
        return;
    }

    McCommand cmd = head;
    caq_.pop_front();
    const Cycle done = dram_.issue(cmd.line, cmd.is_write, false,
                                   now + config_.command_overhead);
    scheduler_->notifyIssued(cmd, dram_);
    if (cmd.is_write)
        ++writes_issued_;
    if (!cmd.is_write) {
        InFlight flight;
        flight.done = done + config_.return_overhead;
        flight.cmd = cmd;
        in_flight_.push_back(flight);
    }
}

void
MemoryController::completeFinished(Cycle now)
{
    for (std::size_t i = 0; i < in_flight_.size();) {
        if (in_flight_[i].done > now) {
            ++i;
            continue;
        }
        const InFlight flight = in_flight_[i];
        in_flight_.erase(in_flight_.begin() +
                         static_cast<std::ptrdiff_t>(i));
        if (flight.cmd.is_prefetch) {
            if (flight.waiters.empty()) {
                if (MemSidePrefetcher *const prefetcher =
                        activePrefetcher())
                    prefetcher->fillBuffer(flight.cmd.line, now);
            } else {
                // Data forwarded straight to the merged demand
                // read(s); it moves into L1/L2 so the buffer copy
                // would be dead weight (same rule as a buffer hit).
                prefetches_merged_useful_.inc();
                for (const McCommand &waiter : flight.waiters) {
                    ++demand_completed_;
                    on_read_done_(waiter.id,
                                  flight.done +
                                      config_.return_overhead);
                }
            }
        } else {
            ++demand_completed_;
            on_read_done_(flight.cmd.id, flight.done);
        }
    }
}

void
MemoryController::tick(Cycle now)
{
    if (MemSidePrefetcher *const prefetcher = activePrefetcher())
        prefetcher->tick(now);
    completeFinished(now);
    moveToCaq(now);
    issueToDram(now);
    if (checksEnabled())
        checkInvariants();
}

Cycles
MemoryController::nextEventIn(Cycle now) const
{
    const Cycle soon = now + 1;
    Cycle next = kNoCycle;
    const auto due = [&next, soon](Cycle at) {
        next = std::min(next, std::max(at, soon));
    };
    MemSidePrefetcher *const prefetcher = activePrefetcher();
    if (prefetcher)
        due(prefetcher->nextTickDue(now));
    for (const auto &flight : in_flight_)
        due(flight.done);
    if (caq_.size() < config_.caq) {
        if (drainWritesNext() != draining_writes_)
            due(soon);
        if (!read_q_.empty() || !write_q_.empty())
            due(scheduler_->pickReadyAt(read_q_, write_q_, dram_, soon));
    }
    // Policy 2 only closes as banks free up, and a bank freeing for a
    // queued command is itself a move event; the others are fixed
    // until some event changes the queues.
    if (prefetcher &&
        policyAllowsLpq(prefetcher->schedulingPolicy(), soon))
        due(dram_.issuableAt(lpq_.front().line));
    if (!caq_.empty()) {
        const McCommand &head = caq_.front();
        if (!head.is_write && prefetcher &&
            prefetcher->bufferContains(head.line))
            due(soon);
        due(dram_.issuableAt(head.line));
        // The first conflict also flags the head and notifies the
        // prefetcher; later ones only count.
        if (!head.delayed_by_prefetch &&
            dram_.occupant(head.line, soon) == BankOccupant::Prefetch)
            due(soon);
    }
    return next == kNoCycle ? kNoCycle : next - now;
}

void
MemoryController::skipQuietCycles(Cycle now, Cycles n)
{
    if (caq_.empty())
        return;
    // issueToDram() counts one conflict per cycle while the head's
    // bank is still busy with a prefetch, that is, up to its ready
    // time.
    const LineAddr line = caq_.front().line;
    if (dram_.occupant(line, now + 1) == BankOccupant::Prefetch)
        prefetch_conflict_events_.inc(
            std::min(now + n, dram_.bankReadyAt(line) - 1) - now);
}

void
MemoryController::resetQueueHighWater()
{
    read_q_hwm_ = read_q_.size();
    write_q_hwm_ = write_q_.size();
    caq_hwm_ = caq_.size();
    lpq_hwm_ = lpq_.size();
}

void
MemoryController::checkInvariants() const
{
    checkThat(read_q_.size() <= config_.read_queue,
              "read reorder queue above capacity");
    checkThat(write_q_.size() <= config_.write_queue,
              "write reorder queue above capacity");
    checkThat(caq_.size() <= config_.caq, "CAQ above capacity");
    checkThat(lpq_.size() <= config_.lpq, "LPQ above capacity");

    std::size_t caq_reads = 0;
    std::size_t caq_writes = 0;
    for (const auto &cmd : caq_)
        (cmd.is_write ? caq_writes : caq_reads) += 1;
    for (const auto &cmd : lpq_)
        checkThat(cmd.is_prefetch && !cmd.is_write,
                  "non-prefetch command in the LPQ");

    // Every accepted demand read is exactly one of: completed, in the
    // read reorder queue, a read in the CAQ, a non-prefetch flight,
    // or a waiter riding an in-flight prefetch.
    std::uint64_t live = read_q_.size() + caq_reads;
    for (const auto &flight : in_flight_) {
        if (flight.cmd.is_prefetch) {
            live += flight.waiters.size();
        } else {
            checkThat(flight.waiters.empty(),
                      "waiters on a non-prefetch flight");
            live += 1;
        }
    }
    checkThat(demand_accepted_ == demand_completed_ + live,
              "demand-read conservation violated across MC queues");

    // Writes: observed = issued to DRAM + still queued + in the CAQ.
    checkThat(writes_observed_.value() ==
                  writes_issued_ + write_q_.size() + caq_writes,
              "write conservation violated across MC queues");
}

bool
MemoryController::idle() const
{
    return read_q_.empty() && write_q_.empty() && caq_.empty() &&
           in_flight_.empty();
}

namespace
{

void
snapshotCommand(SnapshotIo &io, McCommand &cmd)
{
    io.u64(cmd.line);
    io.u64(cmd.id);
    io.u32(cmd.thread);
    io.u64(cmd.enqueued_at);
    io.b(cmd.is_write);
    io.b(cmd.is_prefetch);
    io.b(cmd.delayed_by_prefetch);
}

/** Wire bytes of one command: three u64s, a u32 and three flags. */
constexpr std::size_t kCommandBytes = 3 * 8 + 4 + 3;

void
snapshotQueue(SnapshotIo &io, std::deque<McCommand> &queue,
              std::size_t capacity, const char *what)
{
    const std::uint64_t count = io.count(queue.size(), kCommandBytes);
    io.check(count <= capacity, what);
    if (io.loading())
        queue.resize(count);
    for (McCommand &cmd : queue)
        snapshotCommand(io, cmd);
}

} // namespace

void
MemoryController::snapshot(SnapshotIo &io)
{
    snapshotQueue(io, read_q_, config_.read_queue,
                  "read reorder queue above capacity in snapshot");
    snapshotQueue(io, write_q_, config_.write_queue,
                  "write reorder queue above capacity in snapshot");
    snapshotQueue(io, caq_, config_.caq,
                  "CAQ above capacity in snapshot");
    snapshotQueue(io, lpq_, config_.lpq,
                  "LPQ above capacity in snapshot");
    io.b(draining_writes_);
    // A flight is its completion cycle, command, DRAM flag and
    // waiter count.
    const std::uint64_t flights =
        io.count(in_flight_.size(), 8 + kCommandBytes + 1 + 8);
    if (io.loading())
        in_flight_.assign(flights, InFlight{});
    for (InFlight &flight : in_flight_) {
        io.u64(flight.done);
        snapshotCommand(io, flight.cmd);
        io.b(flight.touches_dram);
        const std::uint64_t waiters =
            io.count(flight.waiters.size(), kCommandBytes);
        if (io.loading())
            flight.waiters.resize(waiters);
        for (McCommand &waiter : flight.waiters)
            snapshotCommand(io, waiter);
    }
    io.u64(next_prefetch_id_);
    io.u64(read_q_hwm_);
    io.u64(write_q_hwm_);
    io.u64(caq_hwm_);
    io.u64(lpq_hwm_);
    io.u64(demand_accepted_);
    io.u64(demand_completed_);
    io.u64(writes_issued_);
    io.counter(reads_observed_);
    io.counter(writes_observed_);
    io.counter(buffer_hits_entry_);
    io.counter(buffer_hits_caq_);
    io.counter(prefetches_issued_);
    io.counter(lpq_dropped_);
    io.counter(regulars_delayed_);
    io.counter(prefetch_conflict_events_);
    io.counter(merged_with_prefetch_);
    io.counter(prefetches_merged_useful_);
    io.counter(lpq_promoted_);
    io.component(*scheduler_);
}

void
MemoryController::registerStats(StatRegistry &registry,
                                const std::string &prefix) const
{
    registry.add(prefix + ".reads", reads_observed_);
    registry.add(prefix + ".writes", writes_observed_);
    registry.add(prefix + ".buffer_hits_entry", buffer_hits_entry_);
    registry.add(prefix + ".buffer_hits_caq", buffer_hits_caq_);
    registry.add(prefix + ".prefetches_issued", prefetches_issued_);
    registry.add(prefix + ".lpq_dropped", lpq_dropped_);
    registry.add(prefix + ".regulars_delayed", regulars_delayed_);
    registry.add(prefix + ".prefetch_conflict_events",
                 prefetch_conflict_events_);
    registry.add(prefix + ".merged_with_prefetch",
                 merged_with_prefetch_);
    registry.add(prefix + ".prefetches_merged_useful",
                 prefetches_merged_useful_);
    registry.add(prefix + ".lpq_promoted", lpq_promoted_);
}

} // namespace asd
