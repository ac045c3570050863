#include "sim/system.hpp"

#include <algorithm>
#include <type_traits>
#include <variant>

#include "common/log.hpp"
#include "sim/metric_table.hpp"

namespace asd
{

namespace
{

// Read-completion id encoding: kind | thread | line.
constexpr std::uint64_t kKindShift = 56;
constexpr std::uint64_t kThreadShift = 48;
constexpr std::uint64_t kLineMask = (1ULL << kThreadShift) - 1;

enum class ReqKind : std::uint64_t
{
    Load = 0,
    Rfo = 1,
    PsL1 = 2,
    PsL2 = 3,
};

std::uint64_t
encodeId(ReqKind kind, std::uint32_t thread, LineAddr line)
{
    panicIfNot(line <= kLineMask, "line address exceeds id encoding");
    return (static_cast<std::uint64_t>(kind) << kKindShift) |
           (static_cast<std::uint64_t>(thread) << kThreadShift) | line;
}

} // namespace

System::System(const SystemConfig &config,
               std::vector<TraceSource *> traces)
    : config_(config),
      dram_(config.dram),
      mc_(config.mc, dram_,
          [this](std::uint64_t id, Cycle done) { onReadDone(id, done); }),
      hierarchy_(config.hierarchy)
{
    if (traces.empty())
        fatal("System: at least one trace required");

    // During warm-up the controller must behave exactly as if no
    // memory-side prefetcher were attached; runUntil() arms it at the
    // boundary.
    if (config_.warmup_cycles > 0)
        mc_.setPrefetcherArmed(false);

    const auto threads = static_cast<std::uint32_t>(traces.size());

    if (config_.hasMs()) {
        AsdConfig asd_config = config_.asd;
        asd_config.threads = threads;
        switch (config_.mc_prefetcher) {
          case McPrefetcherKind::Asd:
            ms_ = std::make_unique<AsdPrefetcher>(asd_config);
            break;
          case McPrefetcherKind::NextLine:
            ms_ = std::make_unique<NextLineMcPrefetcher>(asd_config);
            break;
          case McPrefetcherKind::P5Style:
            ms_ = std::make_unique<P5StyleMcPrefetcher>(asd_config);
            break;
          case McPrefetcherKind::Ghb:
            ms_ = std::make_unique<GhbMcPrefetcher>(asd_config, config_.ghb);
            break;
          case McPrefetcherKind::Stride:
            ms_ = std::make_unique<StrideMcPrefetcher>(asd_config,
                                                       config_.stride);
            break;
          case McPrefetcherKind::Dspatch:
            ms_ = std::make_unique<DspatchMcPrefetcher>(asd_config,
                                                        config_.dspatch);
            break;
          case McPrefetcherKind::Perceptron:
            ms_ = std::make_unique<PerceptronMcPrefetcher>(
                asd_config, config_.perceptron);
            break;
        }
        mc_.attachPrefetcher(ms_.get());
        asd_ = dynamic_cast<AsdPrefetcher *>(ms_.get());
        ms_->registerStats(registry_);
        // Telemetry first, so the System hook sees the completed
        // epoch's record.
        ms_->setEpochEndHook([this](Cycle now) {
            if (telemetry_)
                telemetry_->onEpochEnd(now);
            if (epoch_hook_)
                epoch_hook_(now);
        });
    }

    // The OS model when enabled, else VM mode: the same kernel and
    // MMUs either way, only the frame source differs.
    const std::string mmu_prefix = config_.os.enabled ? "os" : "vm";
    if (config_.vm.enabled || config_.os.enabled)
        kernel_ = std::make_unique<OsKernel>(config_.os, config_.vm);

    for (std::uint32_t t = 0; t < threads; ++t) {
        OsMmu *mmu = nullptr;
        if (kernel_) {
            mmus_.push_back(
                std::make_unique<OsMmu>(config_.vm, *kernel_, t));
            mmu = mmus_.back().get();
            mmu->registerStats(registry_,
                               mmu_prefix + ".t" + std::to_string(t));
        }
        CpuPrefetcher *ps = nullptr;
        if (config_.hasPs()) {
            if (config_.ps_kind == PsKind::Asd) {
                ps_.push_back(std::make_unique<AsdPsPrefetcher>(
                    config_.asd_ps));
            } else {
                ps_.push_back(
                    std::make_unique<PsPrefetcher>(config_.ps));
            }
            ps = ps_.back().get();
            ps->registerStats(registry_,
                              "ps.t" + std::to_string(t));
        }
        cpus_.push_back(std::make_unique<TraceCpu>(
            config_.cpu, *traces[t], hierarchy_, ps, *this, t, mmu));
        cpus_.back()->registerStats(registry_,
                                    "cpu.t" + std::to_string(t));
    }

    if (kernel_)
        kernel_->registerStats(registry_, mmu_prefix);
    dram_.registerStats(registry_);
    mc_.registerStats(registry_, "mc");
    hierarchy_.registerStats(registry_, "cache");
    registry_.add("sys.ps_prefetch_reads", ps_prefetch_reads_);
    registry_.add("sys.ps_prefetch_l3_fills", ps_prefetch_l3_fills_);
    registry_.add("sys.ps_prefetch_dropped", ps_prefetch_dropped_);
    registry_.add("sys.ps_merged_demands", ps_merged_demands_);
    // A tenant mix registers "tenants.*"; one mix per System.
    for (const TraceSource *trace : traces)
        trace->registerStats(registry_, "tenants");

    // Last: the recorder resolves its columns against the registry.
    if (config_.telemetry.enabled && ms_)
        telemetry_ = std::make_unique<TelemetryRecorder>(
            config_.telemetry, registry_, *ms_, asd_, mc_);
}

bool
System::demandRead(LineAddr line, std::uint32_t thread, bool is_rfo)
{
    const ReqKind kind = is_rfo ? ReqKind::Rfo : ReqKind::Load;
    const std::uint64_t id = encodeId(kind, thread, line);
    if (ps_inflight_.count(line) > 0) {
        // Ride the in-flight processor-side prefetch of this line.
        ps_waiters_[line].push_back(id);
        ps_merged_demands_.inc();
        return true;
    }
    return mc_.enqueueRead(line, id, thread, now_);
}

void
System::psPrefetch(LineAddr line, std::uint32_t thread, bool to_l1)
{
    // Already close enough to the core? Nothing to do.
    if (hierarchy_.probe(HitLevel::L2, line) ||
        (to_l1 && hierarchy_.probe(HitLevel::L1, line))) {
        return;
    }
    if (hierarchy_.probe(HitLevel::L3, line)) {
        // Served on-module without a memory command.
        if (to_l1)
            hierarchy_.fillPrefetchL1(line);
        else
            hierarchy_.fillPrefetchL2(line);
        ps_prefetch_l3_fills_.inc();
        return;
    }
    if (ps_inflight_.count(line) > 0)
        return; // already being fetched
    if (config_.ps_oracle) {
        // Limit study: instant, free fills.
        if (to_l1)
            hierarchy_.fillPrefetchL1(line);
        else
            hierarchy_.fillPrefetchL2(line);
        return;
    }
    const ReqKind kind = to_l1 ? ReqKind::PsL1 : ReqKind::PsL2;
    if (mc_.enqueueRead(line, encodeId(kind, thread, line), thread,
                        now_)) {
        ps_prefetch_reads_.inc();
        ps_inflight_.insert(line);
    } else {
        ps_prefetch_dropped_.inc(); // prefetches are never retried
    }
}

void
System::onReadDone(std::uint64_t id, Cycle done)
{
    const auto kind = static_cast<ReqKind>(id >> kKindShift);
    const auto thread =
        static_cast<std::uint32_t>((id >> kThreadShift) & 0xff);
    const LineAddr line = id & kLineMask;
    switch (kind) {
      case ReqKind::Load:
        cpus_[thread]->loadDone(line, done);
        break;
      case ReqKind::Rfo:
        cpus_[thread]->storeDone(line, done);
        break;
      case ReqKind::PsL1:
      case ReqKind::PsL2:
        if (kind == ReqKind::PsL1)
            hierarchy_.fillPrefetchL1(line);
        else
            hierarchy_.fillPrefetchL2(line);
        ps_inflight_.erase(line);
        if (const auto it = ps_waiters_.find(line);
            it != ps_waiters_.end()) {
            const std::vector<std::uint64_t> waiters =
                std::move(it->second);
            ps_waiters_.erase(it);
            for (const std::uint64_t waiter_id : waiters)
                onReadDone(waiter_id, done);
        }
        break;
    }
}

void
System::drainWritebacks()
{
    for (const LineAddr line : hierarchy_.drainWritebacks())
        pending_writebacks_.push_back(line);
    while (!pending_writebacks_.empty()) {
        if (!mc_.enqueueWrite(pending_writebacks_.front(), now_))
            break;
        pending_writebacks_.pop_front();
    }
}

bool
System::everythingDone() const
{
    if (!pending_writebacks_.empty() || !mc_.idle())
        return false;
    return std::all_of(cpus_.begin(), cpus_.end(),
                       [](const auto &cpu) { return cpu->finished(); });
}

Cycles
System::idleSkip() const
{
    Cycles skip = kNoCycle;
    for (const auto &cpu : cpus_) {
        if (cpu->finished())
            continue;
        const Cycles next = cpu->nextEventIn(now_);
        if (next == kNoCycle)
            return 0; // a CPU waits on a callback that cannot come
        skip = std::min(skip, next);
    }
    if (skip == kNoCycle || skip <= 1)
        return 0;
    return skip - 1;
}

Cycles
System::busySkip(Cycle target) const
{
    // Prefetches left in the LPQ keep the controller busy after the
    // last access; the loop then ends at the next cycle.
    if (everythingDone())
        return 0;
    Cycles next = mc_.nextEventIn(now_);
    // A CPU blocked on a completion (kNoCycle) waits for an MC event.
    for (const auto &cpu : cpus_)
        next = std::min(next, cpu->nextBusyEventIn(now_));
    if (next == kNoCycle)
        return 0; // wedged: tick on toward max_cycles
    if (!mc_.prefetcherArmed() && config_.warmup_cycles > now_)
        next = std::min(next, config_.warmup_cycles - now_);
    if (loop_due_) {
        const Cycle due = loop_due_(now_);
        if (due <= now_ + 1)
            return 0;
        if (due != kNoCycle)
            next = std::min(next, due - now_);
    }
    next = std::min(next, target - now_);
    return next - 1;
}

void
System::setEpochEndHook(std::function<void(Cycle)> hook)
{
    epoch_hook_ = std::move(hook);
}

void
System::setLoopHook(std::function<void(Cycle)> hook,
                    std::function<Cycle(Cycle)> due)
{
    loop_hook_ = std::move(hook);
    loop_due_ = std::move(due);
}

void
System::armPrefetcher()
{
    mc_.setPrefetcherArmed(true);
    if (telemetry_)
        telemetry_->rebaseline(now_);
}

void
System::runUntil(Cycle target)
{
    while (!everythingDone()) {
        // The target break comes BEFORE arming: runUntil(W) leaves
        // the machine disarmed at the boundary, and both "resume
        // after restore" and "run straight through" then arm at the
        // identical loop iteration.
        if (now_ >= target)
            break;
        if (loop_hook_)
            loop_hook_(now_);
        if (!mc_.prefetcherArmed() && now_ >= config_.warmup_cycles)
            armPrefetcher();
        if (now_ >= config_.max_cycles)
            fatal("System: max_cycles exceeded; simulation wedged?");
        for (auto &cpu : cpus_)
            cpu->tick(now_);
        drainWritebacks();
        mc_.tick(now_);
        drainWritebacks();
        Cycles skip = 0;
        if (!mc_.hasWork() && pending_writebacks_.empty()) {
            skip = idleSkip();
        } else if (!loop_hook_ || loop_due_) {
            skip = busySkip(target);
            if (skip > 0) {
                mc_.skipQuietCycles(now_, skip);
                for (auto &cpu : cpus_)
                    cpu->skipQuietCycles(now_, skip);
            }
        }
        now_ += 1 + skip;
    }
}

RunMetrics
System::run()
{
    runUntil(kNoCycle);
    return collectMetrics();
}

RunMetrics
System::collectMetrics() const
{
    RunMetrics m;
    for (const MetricEntry &entry : metricTable())
        if (entry.stat)
            *std::get<std::uint64_t *>(entry.ref(m)) =
                registry_.sum(entry.stat);
    // Derived values may read the sums above.
    for (const MetricEntry &entry : metricTable()) {
        if (!entry.derive)
            continue;
        const MetricValue value = entry.derive(*this, m);
        std::visit(
            [&](auto *member) {
                *member = std::get<std::remove_pointer_t<decltype(member)>>(
                    value);
            },
            entry.ref(m));
    }
    return m;
}

void
System::saveSnapshot(SnapshotWriter &w) const
{
    SnapshotIo io(w);
    // snapshot() only reads members when saving.
    const_cast<System *>(this)->snapshot(io);
}

void
System::loadSnapshot(SnapshotReader &r)
{
    SnapshotIo io(r);
    snapshot(io);
}

void
System::snapshot(SnapshotIo &io)
{
    io.beginSection("sys");
    bool armed = mc_.prefetcherArmed();
    io.b(armed);
    io.u64(now_);
    const std::uint64_t writebacks =
        io.count(pending_writebacks_.size(), 8);
    if (io.loading())
        pending_writebacks_.assign(writebacks, 0);
    for (LineAddr &line : pending_writebacks_)
        io.u64(line);
    // Unordered containers are written in sorted key order so that
    // save -> load -> save is byte-identical; simulation only point-
    // queries them, so restore order never changes behaviour.
    std::vector<std::uint64_t> inflight(ps_inflight_.begin(),
                                        ps_inflight_.end());
    std::sort(inflight.begin(), inflight.end());
    io.vecU64(inflight);
    if (io.loading()) {
        ps_inflight_.clear();
        for (const std::uint64_t line : inflight)
            io.check(ps_inflight_.insert(line).second,
                     "duplicate in-flight prefetch line");
    }
    std::vector<LineAddr> waiter_lines;
    waiter_lines.reserve(ps_waiters_.size());
    for (const auto &entry : ps_waiters_)
        waiter_lines.push_back(entry.first);
    std::sort(waiter_lines.begin(), waiter_lines.end());
    // A waiter entry is its line and its waiter count.
    const std::uint64_t lines = io.count(waiter_lines.size(), 16);
    if (io.loading()) {
        waiter_lines.assign(lines, 0);
        ps_waiters_.clear();
    }
    for (LineAddr &line : waiter_lines) {
        io.u64(line);
        std::vector<std::uint64_t> waiters;
        if (!io.loading())
            waiters = ps_waiters_.at(line);
        io.vecU64(waiters);
        if (io.loading())
            io.check(ps_waiters_.emplace(line, std::move(waiters)).second,
                     "duplicate prefetch-waiter line");
    }
    io.counter(ps_prefetch_reads_);
    io.counter(ps_prefetch_l3_fills_);
    io.counter(ps_prefetch_dropped_);
    io.counter(ps_merged_demands_);
    io.expect(static_cast<std::uint32_t>(cpus_.size()),
              "snapshot thread count mismatch");
    bool snap_ms = ms_ != nullptr;
    bool snap_ps = !ps_.empty();
    bool snap_tel = telemetry_ != nullptr;
    bool snap_os = kernel_ != nullptr;
    io.b(snap_ms);
    io.b(snap_ps);
    io.b(snap_tel);
    io.b(snap_os);
    io.endSection();

    // The processor side and translation shape the pre-checkpoint
    // evolution, so they must match exactly. A snapshot WITHOUT
    // memory-side prefetcher / telemetry state may be restored into a
    // machine that HAS them (warm-start forking: the warm-up ran
    // disarmed, the restored machine arms at the boundary and its
    // prefetcher starts from its freshly-built state) — but not the
    // reverse.
    io.check(!snap_ms || ms_ != nullptr,
             "snapshot carries memory-side prefetcher state but this "
             "machine has none");
    io.check(snap_ps == !ps_.empty(),
             "processor-side prefetcher presence mismatch");
    io.check(snap_os == (kernel_ != nullptr),
             "translation presence mismatch");
    io.check(!snap_tel || telemetry_ != nullptr,
             "snapshot carries telemetry state but this machine has no "
             "recorder");
    if (io.loading())
        mc_.setPrefetcherArmed(armed);

    const auto section = [&io](const std::string &name,
                               Snapshottable &component) {
        io.beginSection(name);
        io.component(component);
        io.endSection();
    };
    for (std::size_t t = 0; t < cpus_.size(); ++t)
        section("cpu" + std::to_string(t), *cpus_[t]);
    section("cache", hierarchy_);
    section("mc", mc_);
    section("dram", dram_);
    if (snap_ms) {
        io.beginSection("ms");
        io.expect(static_cast<std::uint8_t>(config_.mc_prefetcher),
                  "memory-side prefetcher kind mismatch");
        io.component(*ms_);
        io.endSection();
    }
    if (snap_ps) {
        for (std::size_t t = 0; t < ps_.size(); ++t)
            section("ps" + std::to_string(t), *ps_[t]);
    }
    if (snap_os) {
        io.beginSection("os");
        io.component(*kernel_);
        for (const auto &mmu : mmus_)
            io.component(*mmu);
        io.endSection();
    }
    if (snap_tel)
        section("tel", *telemetry_);
}

} // namespace asd
