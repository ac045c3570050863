#include "tuner/run.hpp"

#include <cstdint>
#include <string>
#include <utility>

#include "common/log.hpp"
#include "sim/run_options_schema.hpp"

namespace asd
{

BenchmarkRun::BenchmarkRun(const Benchmark &bench,
                           const RunOptions &options,
                           std::uint64_t total_accesses)
    : options_(options), sys_config_(makeSystemConfig(options)),
      detector_(options.tuner)
{
    if (const CliError error = validate(options_))
        fatal("BenchmarkRun: " + *error);

    trace_config_ = bench.trace;
    trace_config_.total_accesses =
        total_accesses != 0 ? total_accesses
                            : scaledAccesses(bench, options_);

    if (options_.tuner.enabled) {
        // The controller reads phases off epoch telemetry, so force
        // the recorder on (it only observes — results are unchanged)
        // and uncapped; SLH capture would be dead weight unless
        // asked for.
        if (!sys_config_.telemetry.enabled) {
            sys_config_.telemetry.enabled = true;
            sys_config_.telemetry.capture_slh = false;
        }
        sys_config_.telemetry.max_epochs = 0;
        current_ = tuningOf(sys_config_.asd);
        shadow_ = std::make_unique<ShadowTuner>(
            options_.tuner, sys_config_,
            [options = options_, trace_config = trace_config_]() {
                std::vector<std::unique_ptr<TraceSource>> traces;
                traces.push_back(makeTraceSource(options, trace_config));
                return traces;
            });
    }
    buildSystem();
}

void
BenchmarkRun::buildSystem()
{
    trace_ = makeTraceSource(options_, trace_config_);
    SystemConfig config = sys_config_;
    if (shadow_)
        config.asd = withTuning(config.asd, current_);
    system_ = std::make_unique<System>(
        config, std::vector<TraceSource *>{trace_.get()});
    if (!shadow_)
        return;
    system_->setEpochEndHook(
        [this](Cycle now) { onEpochEnd(now); });
    system_->setLoopHook([this](Cycle now) { onLoopTop(now); },
                         [this](Cycle now) { return loopDue(now); });
}

void
BenchmarkRun::onEpochEnd(Cycle now)
{
    (void)now;
    const TelemetryRecorder *telemetry = system_->telemetry();
    if (!telemetry || telemetry->records().empty())
        return;
    const EpochRecord &rec = telemetry->records().back();
    const bool changed = detector_.observe(rec);
    ++epochs_since_decision_;
    if (!changed || pending_decision_)
        return;
    if (epochs_since_decision_ < options_.tuner.min_epochs_between)
        return;
    if (options_.tuner.max_decisions != 0 &&
        decisions_made_ >= options_.tuner.max_decisions)
        return;
    // Detected mid-tick; applied at the next loop-top boundary.
    pending_decision_ = true;
    pending_epoch_ = rec.epoch;
    pending_phase_ = detector_.phase();
}

void
BenchmarkRun::onLoopTop(Cycle now)
{
    while (!realize_queue_.empty() &&
           now >= realize_queue_.front().due) {
        recorder_.realize(realize_queue_.front().decision,
                          liveAccesses());
        realize_queue_.pop_front();
    }
    if (pending_decision_) {
        pending_decision_ = false;
        decide(now);
    }
}

Cycle
BenchmarkRun::loopDue(Cycle now) const
{
    // The epoch-end hook may have set a decision during this tick.
    if (pending_decision_)
        return now;
    return realize_queue_.empty() ? kNoCycle : realize_queue_.front().due;
}

void
BenchmarkRun::decide(Cycle now)
{
    const ShadowVerdict verdict =
        shadow_->evaluate(*system_, current_);
    const AsdTuning &winner = verdict.tunings[verdict.winner];

    TunerDecision d;
    d.decision = decisions_made_;
    d.cycle = now;
    d.epoch = pending_epoch_;
    d.phase = pending_phase_;
    d.candidates =
        static_cast<std::uint32_t>(verdict.tunings.size());
    d.shadow_cycles = verdict.shadow_cycles;
    d.adopted_change = winner != current_;
    d.adopted = winner;
    if (verdict.outcomes[0].valid)
        d.incumbent_shadow_accesses = verdict.outcomes[0].accesses;
    if (verdict.outcomes[verdict.winner].valid)
        d.winner_shadow_accesses =
            verdict.outcomes[verdict.winner].accesses;
    d.accesses_at_decision = liveAccesses();

    if (d.adopted_change) {
        system_->asd()->applyTuning(winner);
        current_ = winner;
    }
    recorder_.append(d);
    realize_queue_.push_back(
        {d.decision, now + options_.tuner.shadow_horizon});
    ++decisions_made_;
    epochs_since_decision_ = 0;
}

std::uint64_t
BenchmarkRun::liveAccesses() const
{
    return system_->collectMetrics().accesses;
}

void
BenchmarkRun::runUntil(Cycle target)
{
    system_->runUntil(target);
}

RunResult
BenchmarkRun::run()
{
    runUntil(kNoCycle);
    return result();
}

RunResult
BenchmarkRun::result() const
{
    RunResult res;
    res.metrics = system_->collectMetrics();
    if (system_->telemetry())
        res.epochs = system_->telemetry()->records();
    res.decisions = recorder_.decisions();
    return res;
}

void
BenchmarkRun::saveSnapshot(SnapshotWriter &w) const
{
    if (shadow_) {
        w.beginSection("tun");
        SnapshotIo io(w);
        // snapshotController() only reads members when saving.
        const_cast<BenchmarkRun *>(this)->snapshotController(io);
        w.endSection();
    }
    system_->saveSnapshot(w);
}

void
BenchmarkRun::loadSnapshot(SnapshotReader &r)
{
    if (shadow_) {
        r.openSection("tun");
        SnapshotIo io(r);
        snapshotController(io);
        r.endSection();
        // Rebuild the live machine in the adopted shape, then restore
        // into it — shapes now match the snapshot's sections.
        buildSystem();
    }
    system_->loadSnapshot(r);
}

void
BenchmarkRun::snapshotController(SnapshotIo &io)
{
    AsdTuning t = current_;
    snapshotTuning(io, t);
    // The restored tuning rebuilds the machine, whose constructors
    // fatal (or panic) on a shape no tuner could adopt; reject one
    // here as a malformed snapshot instead.
    constexpr std::uint32_t kMaxShape = 1u << 20; // the option bound
    const auto shape = [&io](std::uint32_t v, std::uint32_t max,
                             const char *what) {
        io.check(v >= 1 && v <= max, what);
    };
    shape(t.max_degree, kMaxShape, "tuned snapshot degree out of range");
    shape(t.epoch_reads, UINT32_MAX,
          "tuned snapshot epoch length out of range");
    shape(t.filter_slots, kMaxShape,
          "tuned snapshot filter slots out of range");
    shape(t.buffer_lines, kMaxShape,
          "tuned snapshot buffer lines out of range");
    for (const int policy : {t.sched.fixed_policy, t.sched.start_policy})
        io.check(policy >= 1 && policy <= 5,
                 "tuned snapshot policy outside 1..5");
    io.check(t.sched.low_watermark <= t.sched.high_watermark,
             "tuned snapshot low watermark above high watermark");
    io.b(pending_decision_);
    io.u64(pending_epoch_);
    io.u64(pending_phase_);
    io.u64(epochs_since_decision_);
    io.u64(decisions_made_);
    const std::uint64_t pending = io.count(realize_queue_.size(), 16);
    io.check(pending <= (1u << 20), "realize queue implausibly long");
    if (io.loading())
        realize_queue_.assign(pending, PendingRealize{});
    for (PendingRealize &p : realize_queue_) {
        io.u64(p.decision);
        io.u64(p.due);
    }
    io.component(detector_);
    io.component(recorder_);
    if (io.loading())
        current_ = t;
}

RunMetrics
runBenchmark(const Benchmark &bench, const RunOptions &options)
{
    return BenchmarkRun(bench, options).run().metrics;
}

} // namespace asd
