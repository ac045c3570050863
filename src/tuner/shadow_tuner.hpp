#ifndef ASD_TUNER_SHADOW_TUNER_HPP
#define ASD_TUNER_SHADOW_TUNER_HPP

/**
 * @file
 * Snapshot-forked shadow evaluation: at a phase boundary the live
 * machine is serialized once, then forked across a coordinate
 * neighborhood of candidate tunings. Each fork restores the identical
 * machine state, applies its candidate, and runs a short bounded
 * shadow simulation; candidates are scored by retired accesses over
 * the horizon (integer, descending) with DRAM traffic as the
 * tie-break. This is the experiment no real hardware can run — N
 * copies of the *same* moment evolved under N different
 * configurations — and it is exact rather than modeled because the
 * snapshot layer restores byte-identical machines.
 *
 * Shadows execute on a private worker pool, but outcomes are
 * collected per candidate index and the winner is chosen after all
 * forks complete, so the adopted sequence never depends on the
 * thread count.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/asd_config.hpp"
#include "common/thread_pool.hpp"
#include "sim/system_config.hpp"
#include "sim/tuner_config.hpp"
#include "trace/trace_source.hpp"

namespace asd
{

class System;

/** One shadow fork's score. */
struct ShadowOutcome
{
    std::uint32_t candidate = 0; //!< index into ShadowVerdict::tunings

    /** Retired accesses when the shadow's horizon expired. */
    std::uint64_t accesses = 0;

    /** DRAM commands issued (reads + writes) — the tie-break. */
    std::uint64_t traffic = 0;

    /** Simulated cycles this shadow actually advanced. */
    std::uint64_t shadow_cycles = 0;

    /** False when the fork failed (never wins against valid forks). */
    bool valid = false;
};

/** Everything one decision's shadow evaluation produced. */
struct ShadowVerdict
{
    /** Candidate tunings evaluated; index 0 is the incumbent. */
    std::vector<AsdTuning> tunings;

    std::vector<ShadowOutcome> outcomes; //!< parallel to tunings

    /** Winning index (0 = keep the incumbent). */
    std::uint32_t winner = 0;

    /** Total simulated shadow cycles spent on this decision. */
    std::uint64_t shadow_cycles = 0;
};

/** Forks a live System across candidate tunings and picks a winner. */
class ShadowTuner
{
  public:
    /**
     * Fresh trace sources positioned at the start of the workload;
     * the snapshot restore rewinds them to the live machine's exact
     * position. Must be callable from worker threads.
     */
    using TraceFactory =
        std::function<std::vector<std::unique_ptr<TraceSource>>()>;

    /**
     * @param base_config the live machine's SystemConfig (telemetry
     *        included, so fork shapes match the snapshot's sections).
     */
    ShadowTuner(const TunerConfig &config,
                const SystemConfig &base_config, TraceFactory traces);

    /**
     * The coordinate neighborhood of @p current over the configured
     * TuneSpace: @p current itself first, then every candidate that
     * changes exactly one axis, deduplicated in axis order.
     */
    std::vector<AsdTuning> candidates(const AsdTuning &current) const;

    /**
     * Snapshot @p live and race the candidate forks over
     * [now, now + shadow_horizon]. @p current must be the tuning the
     * live machine is running (fork shapes depend on it).
     */
    ShadowVerdict evaluate(const System &live,
                           const AsdTuning &current);

  private:
    TunerConfig config_;
    SystemConfig base_config_;
    TraceFactory traces_;
    ThreadPool pool_;
};

} // namespace asd

#endif // ASD_TUNER_SHADOW_TUNER_HPP
