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
    const std::uint64_t useful =
        rec.buffer_consumed + rec.merged_useful;
    if (rec.prefetches_issued > 0) {
        rec.accuracy_pct = 100.0 * static_cast<double>(useful) /
                           static_cast<double>(rec.prefetches_issued);
    }
    if (rec.reads > 0) {
        rec.coverage_pct =
            100.0 * static_cast<double>(rec.buffer_hits) /
            static_cast<double>(rec.reads);
    }
}

} // namespace

std::vector<std::string>
columnStats(const TelemetryColumn &column)
{
    std::vector<std::string> names;
    if (!column.stat)
        return names;
    std::string_view rest = column.stat;
    while (!rest.empty()) {
        const std::size_t plus = rest.find('+');
        names.emplace_back(rest.substr(0, plus));
        rest = plus == std::string_view::npos ? std::string_view()
                                               : rest.substr(plus + 1);
    }
    return names;
}

TelemetryRecorder::TelemetryRecorder(const TelemetryConfig &config,
                                     const StatRegistry &stats,
                                     const BufferedMcPrefetcher &ms,
                                     const AsdPrefetcher *asd,
                                     MemoryController &mc)
    : config_(config), ms_(ms), asd_(asd), mc_(mc)
{
    for (std::size_t i = 0; i < kTelemetryColumns.size(); ++i) {
        for (const std::string &name : columnStats(kTelemetryColumns[i]))
            if (const Counter *counter = stats.find(name))
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
TelemetryRecorder::saveState(SnapshotWriter &w) const
{
    for (const std::uint64_t value : baseline_)
        w.u64(value);
    w.u64(baseline_cycle_);
    w.b(capped_);
    w.u64(records_.size());
    for (const EpochRecord &rec : records_) {
        w.u64(rec.epoch);
        w.u64(rec.start_cycle);
        w.u64(rec.end_cycle);
        for (const TelemetryColumn &column : kTelemetryColumns)
            w.u64(rec.*column.field);
        w.u64(rec.slh.size());
        for (const EpochLht &lht : rec.slh) {
            w.u32(lht.thread);
            w.vecU64(lht.positive);
            w.vecU64(lht.negative);
        }
    }
}

void
TelemetryRecorder::loadState(SnapshotReader &r)
{
    for (std::uint64_t &value : baseline_)
        value = r.u64();
    baseline_cycle_ = r.u64();
    capped_ = r.b();
    // A record is at least its epoch, two cycle stamps, the column
    // values and its LHT count.
    const std::uint64_t count =
        r.count((4 + kTelemetryColumns.size()) * 8);
    records_.clear();
    records_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        EpochRecord rec;
        rec.epoch = r.u64();
        rec.start_cycle = r.u64();
        rec.end_cycle = r.u64();
        for (const TelemetryColumn &column : kTelemetryColumns)
            rec.*column.field = r.u64();
        derivePercentages(rec);
        const std::uint64_t lhts = r.u64();
        for (std::uint64_t j = 0; j < lhts; ++j) {
            EpochLht lht;
            lht.thread = r.u32();
            lht.positive = r.vecU64();
            lht.negative = r.vecU64();
            rec.slh.push_back(std::move(lht));
        }
        records_.push_back(std::move(rec));
    }
}

} // namespace asd
