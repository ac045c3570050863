#include "telemetry/recorder.hpp"

#include "core/asd_prefetcher.hpp"

namespace asd
{

namespace
{

/** Accuracy/coverage from the record's deltas (see EpochRecord). */
void
derivePercentages(EpochRecord &rec)
{
    rec.accuracy_pct = percentOf(rec.buffer_consumed + rec.merged_useful,
                                 rec.prefetches_issued);
    rec.coverage_pct = percentOf(rec.buffer_hits, rec.reads);
}

} // namespace

TelemetryRecorder::TelemetryRecorder(const TelemetryConfig &config,
                                     const StatRegistry &stats,
                                     const BufferedMcPrefetcher &ms,
                                     const AsdPrefetcher *asd,
                                     MemoryController &mc)
    : config_(config), ms_(ms), asd_(asd), mc_(mc)
{
    for (std::size_t i = 0; i < kTelemetryColumns.size(); ++i) {
        if (const char *stat = kTelemetryColumns[i].stat)
            for (const Counter *counter : stats.findAll(stat))
                counters_.emplace_back(i, counter);
    }
    // High-water marks accumulated before the first epoch belong to
    // epoch 1; leave them untouched.
}

TelemetryRecorder::ColumnValues
TelemetryRecorder::sampleCounters() const
{
    ColumnValues values{};
    for (const auto &[column, counter] : counters_)
        values[column] += counter->value();
    return values;
}

void
TelemetryRecorder::onEpochEnd(Cycle now)
{
    if (!config_.enabled || capped_)
        return;
    if (config_.max_epochs > 0 &&
        records_.size() >= config_.max_epochs) {
        capped_ = true;
        return;
    }

    const ColumnValues sample = sampleCounters();
    EpochRecord rec;
    rec.epoch = ms_.epochsCompleted();
    rec.start_cycle = baseline_cycle_;
    rec.end_cycle = now;
    for (std::size_t i = 0; i < kTelemetryColumns.size(); ++i) {
        const TelemetryColumn &column = kTelemetryColumns[i];
        rec.*column.field = column.gauge ? column.gauge(ms_, mc_)
                                         : sample[i] - baseline_[i];
    }
    mc_.resetQueueHighWater();
    derivePercentages(rec);

    if (config_.capture_slh && asd_) {
        for (std::uint32_t t = 0; t < asd_->threadCount(); ++t) {
            EpochLht lht;
            lht.thread = t;
            lht.positive =
                asd_->lhtCurr(t, StreamDir::Positive).counts();
            lht.negative =
                asd_->lhtCurr(t, StreamDir::Negative).counts();
            rec.slh.push_back(std::move(lht));
        }
    }

    records_.push_back(std::move(rec));
    baseline_ = sample;
    baseline_cycle_ = now;
}

void
TelemetryRecorder::rebaseline(Cycle now)
{
    baseline_ = sampleCounters();
    baseline_cycle_ = now;
    mc_.resetQueueHighWater();
}

void
TelemetryRecorder::snapshot(SnapshotIo &io)
{
    for (std::uint64_t &value : baseline_)
        io.u64(value);
    io.u64(baseline_cycle_);
    io.b(capped_);
    // A record is at least its epoch, two cycle stamps, the column
    // values and its LHT count.
    const std::uint64_t count =
        io.count(records_.size(), (4 + kTelemetryColumns.size()) * 8);
    if (io.loading())
        records_.assign(count, EpochRecord{});
    for (EpochRecord &rec : records_) {
        io.u64(rec.epoch);
        io.u64(rec.start_cycle);
        io.u64(rec.end_cycle);
        for (const TelemetryColumn &column : kTelemetryColumns)
            io.u64(rec.*column.field);
        if (io.loading())
            derivePercentages(rec);
        // An LHT is its thread and the two vectors' lengths.
        const std::uint64_t lhts = io.count(rec.slh.size(), 4 + 2 * 8);
        if (io.loading())
            rec.slh.assign(lhts, EpochLht{});
        for (EpochLht &lht : rec.slh) {
            io.u32(lht.thread);
            io.vecU64(lht.positive);
            io.vecU64(lht.negative);
        }
    }
}

} // namespace asd
