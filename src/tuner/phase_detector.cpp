#include "tuner/phase_detector.hpp"

#include <cstdlib>

#include "common/log.hpp"

namespace asd
{

namespace
{

/** value * 100000 / max(denom, 1) — a milli-percent ratio. */
std::int64_t
milliPct(std::uint64_t value, std::uint64_t denom)
{
    if (denom == 0)
        denom = 1;
    return static_cast<std::int64_t>(value * 100000 / denom);
}

} // namespace

PhaseDetector::PhaseDetector(const TunerConfig &config)
    : config_(config)
{
    if (config_.phase_window == 0)
        fatal("PhaseDetector: phase_window must be >= 1");
}

std::vector<std::int64_t>
PhaseDetector::features(const EpochRecord &rec)
{
    // Raw counters only: the EpochRecord's accuracy_pct/coverage_pct
    // doubles stay out of the decision path (integer-only scoring).
    const std::uint64_t queue_hwm =
        rec.read_q_hwm + rec.write_q_hwm + rec.caq_hwm + rec.lpq_hwm;
    return {
        milliPct(rec.buffer_consumed, rec.prefetches_issued),
        milliPct(rec.buffer_hits, rec.reads),
        milliPct(rec.suggested, rec.reads),
        milliPct(rec.suppressed, rec.reads),
        milliPct(rec.dram_row_hits,
                 rec.dram_row_hits + rec.dram_row_misses),
        static_cast<std::int64_t>(queue_hwm * 1000),
    };
}

bool
PhaseDetector::observe(const EpochRecord &rec)
{
    ++observed_;
    std::vector<std::int64_t> feats = features(rec);

    bool changed = false;
    if (window_.size() >= config_.phase_window) {
        for (std::size_t i = 0; i < feats.size() && !changed; ++i) {
            std::int64_t sum = 0;
            for (const auto &past : window_)
                sum += past[i];
            const std::int64_t mean =
                sum / static_cast<std::int64_t>(window_.size());
            // Relative deviation in milli-percent of the window mean,
            // floored at 1000 (1%) so near-zero features cannot fire
            // on noise-sized absolute wiggles.
            const std::int64_t base =
                std::abs(mean) > 1000 ? std::abs(mean) : 1000;
            const std::int64_t dev =
                std::abs(feats[i] - mean) * 100000 / base;
            if (dev >
                static_cast<std::int64_t>(
                    config_.phase_threshold_milli_pct))
                changed = true;
        }
    }

    if (changed) {
        ++phase_;
        // Restart the reference window from the new regime.
        window_.clear();
    }
    window_.push_back(std::move(feats));
    while (window_.size() > config_.phase_window)
        window_.pop_front();
    return changed;
}

void
PhaseDetector::snapshot(SnapshotIo &io)
{
    io.u64(phase_);
    io.u64(observed_);
    // A row is at least its feature count.
    const std::uint64_t rows = io.count(window_.size(), 8);
    io.check(rows <= config_.phase_window,
             "phase window larger than configured");
    if (io.loading())
        window_.assign(rows, {});
    for (std::vector<std::int64_t> &feats : window_) {
        const std::uint64_t cols = io.count(feats.size(), 8);
        io.check(cols <= 64, "phase feature vector implausibly long");
        if (io.loading())
            feats.assign(cols, 0);
        for (std::int64_t &f : feats)
            io.i64(f);
    }
}

} // namespace asd
