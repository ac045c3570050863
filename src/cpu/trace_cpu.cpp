#include "cpu/trace_cpu.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace asd
{

TraceCpu::TraceCpu(const CpuConfig &config, TraceSource &trace,
                   CacheHierarchy &hierarchy, CpuPrefetcher *ps,
                   MemPort &port, std::uint32_t thread,
                   OsMmu *mmu)
    : config_(config),
      trace_(trace),
      hierarchy_(hierarchy),
      ps_(ps),
      port_(port),
      thread_(thread),
      mmu_(mmu),
      mem_loads_(config.mlp),
      store_rfos_(config.store_buffer)
{
    panicIfNot(config_.ipc > 0, "TraceCpu: ipc must be positive");
    panicIfNot(config_.mlp > 0, "TraceCpu: mlp must be positive");
}

void
TraceCpu::completeTimedLoads(Cycle now)
{
    timed_loads_.erase(
        std::remove_if(timed_loads_.begin(), timed_loads_.end(),
                       [now](Cycle done) { return done <= now; }),
        timed_loads_.end());
}

void
TraceCpu::observePs(LineAddr line, bool was_l1_miss)
{
    if (!ps_)
        return;
    for (const PsPrefetchReq &req : ps_->observe(line, was_l1_miss))
        port_.psPrefetch(req.line, thread_, req.to_l1);
}

bool
TraceCpu::tryIssue(Cycle now)
{
    Pending &p = pending_;

    if (p.access.dependent &&
        (mem_loads_.inUse() > 0 || !timed_loads_.empty())) {
        dep_stall_cycles_.inc();
        return false;
    }

    const bool is_store = p.access.op == MemOp::Write;

    if (!p.looked_up) {
        // Consult the hierarchy exactly once per access; retries only
        // re-attempt the slot allocation / memory-port call.
        const AccessResult result = hierarchy_.access(p.line, is_store);
        p.looked_up = true;
        p.needs_memory = result.needs_memory;
        p.hit_latency = result.latency;
        // PS observation is deferred until the demand read itself has
        // been issued: prefetch reads must reach the memory
        // controller AFTER the demand miss that triggered them, or
        // the controller-side stream filter sees lines out of order.
        p.ps_observe = !is_store;
        p.ps_was_miss = result.level != HitLevel::L1;
        if (is_store && !result.needs_memory) {
            // Store absorbed by L2/L3; the store buffer hides it.
            retired_.inc();
            p.valid = false;
            return true;
        }
    }

    if (!is_store && !p.needs_memory) {
        // Cache-hit load: occupies an outstanding-load slot until its
        // data returns from L1/L2/L3.
        if (timed_loads_.size() + mem_loads_.inUse() >= config_.mlp) {
            load_stall_cycles_.inc();
            return false;
        }
        timed_loads_.push_back(now + p.hit_latency);
        retired_.inc();
        p.valid = false;
        if (p.ps_observe)
            observePs(p.line, p.ps_was_miss);
        return true;
    }

    if (is_store) {
        if (store_rfos_.full()) {
            store_stall_cycles_.inc();
            return false;
        }
        if (!store_rfos_.allocate(p.line)) {
            // New RFO: send it, or park it for retry if the memory
            // controller is full (the MSHR waits, not the core).
            if (!port_.demandRead(p.line, thread_, true)) {
                mc_reject_cycles_.inc();
                retry_q_.push_back({p.line, true});
            }
        }
        retired_.inc();
        p.valid = false;
        return true;
    }

    // Load that needs memory.
    if (timed_loads_.size() + mem_loads_.inUse() >= config_.mlp) {
        load_stall_cycles_.inc();
        return false;
    }
    if (!mem_loads_.allocate(p.line)) {
        if (!port_.demandRead(p.line, thread_, false)) {
            mc_reject_cycles_.inc();
            retry_q_.push_back({p.line, false});
        }
    }
    retired_.inc();
    p.valid = false;
    if (p.ps_observe)
        observePs(p.line, p.ps_was_miss);
    return true;
}

void
TraceCpu::tick(Cycle now)
{
    completeTimedLoads(now);

    // Re-attempt parked misses before doing anything else; at most
    // one enqueue per cycle (one cache port to the controller).
    if (!retry_q_.empty()) {
        const RetryEntry entry = retry_q_.front();
        if (port_.demandRead(entry.line, thread_, entry.is_rfo))
            retry_q_.erase(retry_q_.begin());
        else
            mc_reject_cycles_.inc();
    }

    // The System may fast-forward between ticks; burn gap
    // instructions for the whole elapsed window, not one cycle.
    const Cycles elapsed =
        last_tick_ == kNoCycle || now <= last_tick_ ? 1
                                                    : now - last_tick_;
    last_tick_ = now;

    if (pending_.valid) {
        if (now < issue_ready_at_)
            return; // page walk in flight
        tryIssue(now);
        return;
    }

    if (compute_left_ > 0) {
        compute_left_ -= std::min<std::uint64_t>(
            compute_left_, elapsed * config_.ipc);
        if (compute_left_ > 0)
            return;
    }

    if (trace_done_)
        return;

    MemAccess access;
    if (!trace_.next(access)) {
        trace_done_ = true;
        return;
    }
    pending_.access = access;
    // Translate before anything downstream sees the address: caches,
    // controller, and the memory-side prefetcher all operate on
    // physical lines. A TLB miss holds the access at issue for the
    // page-walk (or, under the OS model, fault-service) latency.
    Addr paddr = access.addr;
    issue_ready_at_ = now;
    if (mmu_) {
        Cycles walk = 0;
        paddr = mmu_->translate(access, walk);
        if (walk > 0) {
            issue_ready_at_ = now + walk;
            walk_stall_cycles_.inc(walk);
        }
    }
    pending_.line = paddr / config_.line_bytes;
    pending_.valid = true;
    pending_.looked_up = false;
    pending_.needs_memory = false;
    compute_left_ = access.gap;
    if (now >= issue_ready_at_)
        tryIssue(now);
}

bool
TraceCpu::finished() const
{
    return trace_done_ && !pending_.valid && timed_loads_.empty() &&
           mem_loads_.inUse() == 0 && store_rfos_.inUse() == 0 &&
           retry_q_.empty();
}

Cycles
TraceCpu::nextEventIn(Cycle now) const
{
    if (finished())
        return kNoCycle;
    if (!retry_q_.empty())
        return 1;
    if (pending_.valid) {
        if (now < issue_ready_at_)
            return issue_ready_at_ - now; // page walk finishes then
        // Waiting on a memory callback (dependence or MC rejection)?
        if (mem_loads_.inUse() > 0 || store_rfos_.inUse() > 0) {
            if (timed_loads_.empty())
                return kNoCycle; // only a callback can unblock us
        }
        Cycle soonest = kNoCycle;
        for (const Cycle done : timed_loads_)
            soonest = std::min(soonest, done);
        if (soonest == kNoCycle)
            return 1;
        return soonest > now ? soonest - now : 1;
    }
    if (compute_left_ > 0)
        return (compute_left_ + config_.ipc - 1) / config_.ipc;
    if (trace_done_) {
        Cycle soonest = kNoCycle;
        for (const Cycle done : timed_loads_)
            soonest = std::min(soonest, done);
        if (soonest == kNoCycle)
            return kNoCycle;
        return soonest > now ? soonest - now : 1;
    }
    return 1;
}

Counter TraceCpu::*
TraceCpu::blockedStall() const
{
    // Mirrors tryIssue()'s checks, in its order.
    if (pending_.access.dependent &&
        (mem_loads_.inUse() > 0 || !timed_loads_.empty()))
        return &TraceCpu::dep_stall_cycles_;
    if (!pending_.looked_up)
        return nullptr;
    if (pending_.access.op == MemOp::Write)
        return store_rfos_.full() ? &TraceCpu::store_stall_cycles_
                                  : nullptr;
    return timed_loads_.size() + mem_loads_.inUse() >= config_.mlp
               ? &TraceCpu::load_stall_cycles_
               : nullptr;
}

Cycles
TraceCpu::nextBusyEventIn(Cycle now) const
{
    if (finished())
        return kNoCycle;
    if (!retry_q_.empty())
        return 1;
    if (pending_.valid) {
        if (now < issue_ready_at_)
            return issue_ready_at_ - now; // page walk finishes then
        if (!blockedStall())
            return 1; // issues
    } else if (compute_left_ > 0) {
        return (compute_left_ + config_.ipc - 1) / config_.ipc;
    } else if (!trace_done_) {
        return 1; // fetches
    }
    // Blocked or drained: a cache-hit load's return can unblock the
    // access or finish the CPU.
    Cycle soonest = kNoCycle;
    for (const Cycle done : timed_loads_)
        soonest = std::min(soonest, done);
    if (soonest == kNoCycle)
        return kNoCycle;
    return soonest > now ? soonest - now : 1;
}

void
TraceCpu::skipQuietCycles(Cycle now, Cycles n)
{
    completeTimedLoads(now + n);
    last_tick_ = now + n;
    if (!pending_.valid) {
        compute_left_ -=
            std::min<std::uint64_t>(compute_left_, n * config_.ipc);
    } else if (const auto stall = blockedStall();
               stall && now >= issue_ready_at_) {
        (this->*stall).inc(n);
    }
}

void
TraceCpu::loadDone(LineAddr line, Cycle now)
{
    (void)now;
    if (mem_loads_.release(line) > 0)
        hierarchy_.fill(line, false);
}

void
TraceCpu::storeDone(LineAddr line, Cycle now)
{
    (void)now;
    if (store_rfos_.release(line) > 0)
        hierarchy_.fill(line, true);
}

void
TraceCpu::snapshot(SnapshotIo &io)
{
    io.component(trace_);
    io.b(trace_done_);
    io.u64(compute_left_);
    io.u64(last_tick_);
    io.b(pending_.valid);
    io.u64(pending_.access.addr);
    io.u32(pending_.access.gap);
    io.enumeration(pending_.access.op, MemOp::Write,
                   "memory op out of range");
    io.b(pending_.access.dependent);
    io.u32(pending_.access.space);
    io.u64(pending_.line);
    io.b(pending_.looked_up);
    io.b(pending_.needs_memory);
    io.b(pending_.ps_observe);
    io.b(pending_.ps_was_miss);
    io.u64(pending_.hit_latency);
    io.u64(issue_ready_at_);
    io.vecU64(timed_loads_);
    io.component(mem_loads_);
    io.component(store_rfos_);
    // A retry entry is its line and its RFO flag.
    const std::uint64_t retries = io.count(retry_q_.size(), 8 + 1);
    if (io.loading())
        retry_q_.resize(retries);
    for (RetryEntry &entry : retry_q_) {
        io.u64(entry.line);
        io.b(entry.is_rfo);
    }
    io.counter(retired_);
    io.counter(load_stall_cycles_);
    io.counter(store_stall_cycles_);
    io.counter(dep_stall_cycles_);
    io.counter(mc_reject_cycles_);
    io.counter(walk_stall_cycles_);
}

void
TraceCpu::registerStats(StatRegistry &registry,
                        const std::string &prefix) const
{
    registry.add(prefix + ".retired", retired_);
    registry.add(prefix + ".load_stall_cycles", load_stall_cycles_);
    registry.add(prefix + ".store_stall_cycles", store_stall_cycles_);
    registry.add(prefix + ".dep_stall_cycles", dep_stall_cycles_);
    registry.add(prefix + ".mc_reject_cycles", mc_reject_cycles_);
    if (mmu_)
        registry.add(prefix + ".walk_stall_cycles",
                     walk_stall_cycles_);
}

} // namespace asd
