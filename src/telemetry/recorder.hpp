#ifndef ASD_TELEMETRY_RECORDER_HPP
#define ASD_TELEMETRY_RECORDER_HPP

/**
 * @file
 * Per-epoch telemetry: the paper's claims are all *per-epoch*
 * dynamics — the SLH adapting (Fig. 2), the Adaptive Scheduler
 * walking its five policies, accuracy/coverage trading off
 * (Figs. 10-11) — so the recorder samples every counter the epoch
 * machinery touches at each memory-side prefetcher epoch boundary
 * (any contender; the clock is BufferedMcPrefetcher's) and turns
 * them into one EpochRecord of deltas. One column table
 * (kTelemetryColumns) names each column, its EpochRecord member and
 * the stat-registry counter it is the delta of; the recorder, its
 * snapshot and every sink loop over it, so a new per-epoch column is
 * one table line. sim::System installs the recorder via
 * BufferedMcPrefetcher::setEpochEndHook; it only reads (plus resetting the
 * controller's queue high-water marks), so an enabled recorder never
 * changes simulation results.
 */

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/buffered_prefetcher.hpp"
#include "mc/memory_controller.hpp"
#include "snapshot/snapshot.hpp"
#include "telemetry/telemetry_config.hpp"

namespace asd
{

class AsdPrefetcher;

/** One thread's LHTcurr snapshot inside an epoch record. */
struct EpochLht
{
    std::uint32_t thread = 0;
    std::vector<std::uint64_t> positive; //!< stream-count lht()
    std::vector<std::uint64_t> negative;

    bool operator==(const EpochLht &) const = default;
};

/** Everything one epoch did, as deltas over the epoch. */
struct EpochRecord
{
    std::uint64_t epoch = 0; //!< 1-based, == epochsCompleted()
    Cycle start_cycle = 0;   //!< previous boundary (0 for epoch 1)
    Cycle end_cycle = 0;     //!< cycle of this boundary

    // ASD decision path.
    std::uint64_t reads = 0;     //!< MC reads observed this epoch
    std::uint64_t suggested = 0; //!< prefetch candidates emitted
    std::uint64_t suppressed = 0;
    std::uint64_t overflow_reads = 0;
    std::uint64_t stream_merges = 0;
    std::uint64_t lht_underflow_clamps = 0;

    // Prefetch datapath.
    std::uint64_t prefetches_issued = 0;
    std::uint64_t buffer_hits = 0;
    std::uint64_t buffer_consumed = 0;
    std::uint64_t merged_useful = 0;
    std::uint64_t lpq_dropped = 0;

    // Adaptive Scheduling feedback.
    std::uint64_t policy = 0; //!< policy in force entering the *next* epoch
    std::uint64_t conflicts = 0; //!< prefetch-conflict notifications
    std::uint64_t regulars_delayed = 0;

    // Memory substrate.
    std::uint64_t dram_row_hits = 0;
    std::uint64_t dram_row_misses = 0; //!< bank conflicts (row cycles)

    // Queue-occupancy high-water marks over the epoch.
    std::uint64_t read_q_hwm = 0;
    std::uint64_t write_q_hwm = 0;
    std::uint64_t caq_hwm = 0;
    std::uint64_t lpq_hwm = 0;

    /**
     * Per-epoch accuracy/coverage, mirroring RunMetrics'
     * useful_prefetch_pct / coverage_pct definitions but over this
     * epoch's deltas (0 when the denominator is 0).
     */
    double accuracy_pct = 0.0;
    double coverage_pct = 0.0;

    // OS memory model (all zero when the OS model is off); lets the
    // phase detector see OS-induced phase changes.
    std::uint64_t os_minor_faults = 0;
    std::uint64_t os_major_faults = 0;
    std::uint64_t os_reclaims = 0;
    std::uint64_t os_writebacks = 0;
    std::uint64_t os_shootdowns = 0;

    // Multi-tenant scenario engine (zero when off).
    std::uint64_t tenant_arrivals = 0;
    std::uint64_t tenant_departures = 0;

    /**
     * Per-thread LHTcurr snapshots (TelemetryConfig::capture_slh;
     * ASD only).
     */
    std::vector<EpochLht> slh;

    bool operator==(const EpochRecord &) const = default;
};

/** Reads a gauge column's value at the epoch boundary. */
using TelemetryGauge = std::uint64_t (*)(const BufferedMcPrefetcher &,
                                         const MemoryController &);

/** One integer column of the per-epoch record. */
struct TelemetryColumn
{
    const char *name; //!< CSV header and JSON key
    std::uint64_t EpochRecord::*field;
    /**
     * Registry stat the column is the per-epoch delta of ('+' joins
     * stats that are summed); null for a gauge. A stat the System
     * did not register (os.* outside the OS model, asd.* under
     * another contender) reads as 0.
     */
    const char *stat;
    TelemetryGauge gauge = nullptr; //!< set iff stat is null
};

/**
 * Every integer column in CSV order. accuracy_pct and coverage_pct
 * are derived from the deltas and sit before kPercentColumnsAt.
 */
inline constexpr auto kTelemetryColumns = std::to_array<TelemetryColumn>({
    {"reads", &EpochRecord::reads, "mc.reads"},
    {"suggested", &EpochRecord::suggested, "asd.suggested"},
    {"suppressed", &EpochRecord::suppressed, "asd.suppressed"},
    {"overflow_reads", &EpochRecord::overflow_reads, "asd.overflow_reads"},
    {"stream_merges", &EpochRecord::stream_merges, "asd.stream_merges"},
    // AsdPrefetcher syncs this counter before the epoch hook fires.
    {"lht_underflow_clamps", &EpochRecord::lht_underflow_clamps,
     "asd.lht_underflow"},
    {"prefetches_issued", &EpochRecord::prefetches_issued,
     "mc.prefetches_issued"},
    {"buffer_hits", &EpochRecord::buffer_hits,
     "mc.buffer_hits_entry+mc.buffer_hits_caq+mc.merged_with_prefetch"},
    {"buffer_consumed", &EpochRecord::buffer_consumed,
     "ms.buffer.consumed"},
    {"merged_useful", &EpochRecord::merged_useful,
     "mc.prefetches_merged_useful"},
    {"lpq_dropped", &EpochRecord::lpq_dropped, "mc.lpq_dropped"},
    // The epoch hook fires after AdaptiveScheduler::epochEnd(), so
    // this is the (possibly stepped) policy entering the next epoch —
    // the value the paper's Fig. 13-style timelines plot.
    {"policy", &EpochRecord::policy, nullptr,
     [](const BufferedMcPrefetcher &ms, const MemoryController &) {
         return static_cast<std::uint64_t>(ms.scheduler().policy());
     }},
    {"conflicts", &EpochRecord::conflicts, "ms.sched.conflicts"},
    {"regulars_delayed", &EpochRecord::regulars_delayed,
     "mc.regulars_delayed"},
    {"dram_row_hits", &EpochRecord::dram_row_hits, "dram.row_hits"},
    {"dram_row_misses", &EpochRecord::dram_row_misses, "dram.row_misses"},
    {"read_q_hwm", &EpochRecord::read_q_hwm, nullptr,
     [](const BufferedMcPrefetcher &, const MemoryController &mc) {
         return static_cast<std::uint64_t>(mc.readQHighWater());
     }},
    {"write_q_hwm", &EpochRecord::write_q_hwm, nullptr,
     [](const BufferedMcPrefetcher &, const MemoryController &mc) {
         return static_cast<std::uint64_t>(mc.writeQHighWater());
     }},
    {"caq_hwm", &EpochRecord::caq_hwm, nullptr,
     [](const BufferedMcPrefetcher &, const MemoryController &mc) {
         return static_cast<std::uint64_t>(mc.caqHighWater());
     }},
    {"lpq_hwm", &EpochRecord::lpq_hwm, nullptr,
     [](const BufferedMcPrefetcher &, const MemoryController &mc) {
         return static_cast<std::uint64_t>(mc.lpqHighWater());
     }},
    {"os_minor_faults", &EpochRecord::os_minor_faults, "os.minor_faults"},
    {"os_major_faults", &EpochRecord::os_major_faults, "os.major_faults"},
    {"os_reclaims", &EpochRecord::os_reclaims, "os.reclaims"},
    {"os_writebacks", &EpochRecord::os_writebacks, "os.writebacks"},
    {"os_shootdowns", &EpochRecord::os_shootdowns, "os.shootdowns"},
    {"tenant_arrivals", &EpochRecord::tenant_arrivals, "tenants.arrivals"},
    {"tenant_departures", &EpochRecord::tenant_departures,
     "tenants.departures"},
});

/** Index of the column the two percentage columns precede. */
inline constexpr std::size_t kPercentColumnsAt = 11;
static_assert(std::string_view(kTelemetryColumns[kPercentColumnsAt].name) ==
              "policy");

/** The recorder; one per System, driven by the epoch-end hook. */
class TelemetryRecorder : public Snapshottable
{
  public:
    /**
     * Resolves every column's stats in @p stats once, so construct
     * it after everything is registered. All references must outlive
     * the recorder; the controller is mutable only to read-and-reset
     * its queue high-water marks. @p asd is @p ms viewed as ASD, or
     * null for another contender; it only feeds SLH capture. The
     * delta baseline starts at zero, so epoch 1 includes everything
     * counted before construction.
     */
    TelemetryRecorder(const TelemetryConfig &config,
                      const StatRegistry &stats,
                      const BufferedMcPrefetcher &ms,
                      const AsdPrefetcher *asd, MemoryController &mc);

    /** Epoch boundary at @p now: append one EpochRecord. */
    void onEpochEnd(Cycle now);

    /**
     * Re-anchor the delta baseline at @p now. The System calls this
     * when the prefetcher is armed after a warm-up phase so epoch 1's
     * deltas exclude warm-up activity — with or without a snapshot in
     * between, both paths rebaseline at the same boundary cycle and
     * record identical epochs.
     */
    void rebaseline(Cycle now);

    const std::vector<EpochRecord> &records() const
    {
        return records_;
    }

  protected:
    void snapshot(SnapshotIo &io) override;

  private:
    using ColumnValues = std::array<std::uint64_t, kTelemetryColumns.size()>;

    /** Current value of every delta column's stats (0 for gauges). */
    ColumnValues sampleCounters() const;

    TelemetryConfig config_;
    const BufferedMcPrefetcher &ms_;
    const AsdPrefetcher *asd_; //!< null unless ms_ is ASD
    MemoryController &mc_;
    // asdlint:allow(snapshot-field-coverage): wiring resolved from the registry at construction; the sampled values live in baseline_
    std::vector<std::pair<std::size_t, const Counter *>> counters_;

    ColumnValues baseline_{}; //!< the next epoch's deltas start here
    Cycle baseline_cycle_ = 0;
    std::vector<EpochRecord> records_;
    bool capped_ = false;
};

} // namespace asd

#endif // ASD_TELEMETRY_RECORDER_HPP
