#ifndef ASD_TUNER_RUN_HPP
#define ASD_TUNER_RUN_HPP

/**
 * @file
 * One benchmark run: the single way the CLIs, the sweep runner, the
 * arena and the benches drive a single-threaded machine. A
 * BenchmarkRun builds the trace and the System from a RunOptions and
 * honours every field of it, the phase-adaptive tuner included.
 *
 * With options.tuner.enabled it also closes the tuner's control loop
 *
 *     telemetry epoch -> PhaseDetector -> (phase change?)
 *         -> snapshot + ShadowTuner fork race -> adopt winner
 *         -> AsdPrefetcher::applyTuning on the live machine
 *
 * Decisions are *detected* at epoch boundaries (inside the machine's
 * tick) but *applied* at the top of the next runUntil iteration via
 * the System loop hook — a clean cycle boundary that a checkpointed
 * run resumes at exactly, so tuned runs checkpoint/restore
 * byte-identically. The hook states when it is next due (a pending
 * decision, else the oldest awaited realization), so the live
 * machine keeps the busy-controller skip between them. One shadow
 * horizon after each decision the realized live progress is recorded
 * against the winner's prediction (TunerDecision::realized_accesses).
 * Telemetry is forced on internally — the recorder only reads the
 * machine, so results are unchanged — but the caller's RunOptions are
 * reported unmodified.
 * An untuned run has no shadow pool, no hooks and no forced
 * telemetry: it is exactly a System over the benchmark's trace.
 */

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/system.hpp"
#include "trace/synthetic.hpp"
#include "tuner/phase_detector.hpp"
#include "tuner/shadow_tuner.hpp"
#include "tuner/tuner_recorder.hpp"
#include "workloads/profiles.hpp"
#include "workloads/tenant_mix.hpp"

namespace asd
{

/** Everything a finished run produced. */
struct RunResult
{
    RunMetrics metrics;
    std::vector<EpochRecord> epochs;       //!< empty without telemetry
    std::vector<TunerDecision> decisions; //!< empty when untuned
};

/** One single-threaded run of a benchmark. */
class BenchmarkRun
{
  public:
    /**
     * fatal() when @p options break a validate() rule.
     * @p total_accesses pins the exact trace length (snapshot
     *    restore); 0 derives it from options/ASD_BENCH_SCALE.
     */
    BenchmarkRun(const Benchmark &bench, const RunOptions &options,
                 std::uint64_t total_accesses = 0);

    // The System's hooks point back at this object.
    BenchmarkRun(const BenchmarkRun &) = delete;
    BenchmarkRun &operator=(const BenchmarkRun &) = delete;

    /** Run to completion and report. */
    RunResult run();

    /** Advance to @p target (kNoCycle = completion); resumable. */
    void runUntil(Cycle target);

    RunResult result() const;

    System &system() { return *system_; }
    const System &system() const { return *system_; }

    /**
     * Serialize the run: when tuned, controller state first (a "tun"
     * section: adopted tuning, phase detector, decision log, pending
     * work), then the live machine's sections. finish()/config-hash
     * handling belongs to the caller, as with System::saveSnapshot.
     */
    void saveSnapshot(SnapshotWriter &w) const;

    /**
     * Restore a checkpoint. A tuned run reads the "tun" section first
     * to learn the tuning adopted before the save, rebuilds the live
     * machine in that shape, then restores it — the same two-step
     * the shadow forks use. The BenchmarkRun must have been
     * constructed from the identical benchmark and options.
     */
    void loadSnapshot(SnapshotReader &r);

  private:
    /** The live trace and machine, hooked into the tuner if on. */
    void buildSystem();
    /**
     * The "tun" payload: adopted tuning, controller state, phase
     * detector and decision log. Loading adopts the restored tuning
     * (the caller rebuilds the machine in its shape).
     */
    void snapshotController(SnapshotIo &io);
    void onEpochEnd(Cycle now);
    void onLoopTop(Cycle now);
    /** The next loop top onLoopTop() acts at (System::setLoopHook). */
    Cycle loopDue(Cycle now) const;
    void decide(Cycle now);
    std::uint64_t liveAccesses() const;

    RunOptions options_;
    SystemConfig sys_config_; //!< telemetry forced on when tuned
    SyntheticConfig trace_config_;

    /**
     * The live trace source: a plain SyntheticTraceGenerator, or a
     * TenantMixSource when options.tenants.enabled (the shadow forks
     * build matching sources and restore them from the live
     * snapshot, so tenant mixes tune like any other workload).
     */
    std::unique_ptr<TraceSource> trace_;
    std::unique_ptr<System> system_;
    std::unique_ptr<ShadowTuner> shadow_; //!< null iff untuned
    PhaseDetector detector_;
    TunerRecorder recorder_;

    AsdTuning current_;

    // Controller state (snapshotted in the "tun" section).
    bool pending_decision_ = false;
    std::uint64_t pending_epoch_ = 0;
    std::uint64_t pending_phase_ = 0;
    std::uint64_t epochs_since_decision_ = 0;
    std::uint64_t decisions_made_ = 0;

    /** Decisions awaiting their realized measurement. */
    struct PendingRealize
    {
        std::uint64_t decision = 0;
        Cycle due = 0;
    };
    std::deque<PendingRealize> realize_queue_;
};

/** Run one benchmark single-threaded: BenchmarkRun(...).run().metrics. */
RunMetrics runBenchmark(const Benchmark &bench, const RunOptions &options);

} // namespace asd

#endif // ASD_TUNER_RUN_HPP
