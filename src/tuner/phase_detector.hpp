#ifndef ASD_TUNER_PHASE_DETECTOR_HPP
#define ASD_TUNER_PHASE_DETECTOR_HPP

/**
 * @file
 * Deterministic integer change-point detection over epoch-boundary
 * telemetry. The detector keeps a sliding window of per-epoch feature
 * vectors (all integers, derived from the raw EpochRecord counters —
 * never its floating-point convenience fields) and declares a phase
 * change when the newest epoch's features deviate from the window
 * mean by more than a configured relative threshold. Identical
 * telemetry always yields the identical phase sequence, which is what
 * makes the tuner's decision log reproducible.
 */

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/tuner_config.hpp"
#include "snapshot/snapshot.hpp"
#include "telemetry/recorder.hpp"

namespace asd
{

/** Sliding-window change-point detector over epoch telemetry. */
class PhaseDetector : public Snapshottable
{
  public:
    explicit PhaseDetector(const TunerConfig &config);

    /**
     * Feed the completed epoch @p rec; true when it starts a new
     * phase. The first phase_window epochs seed the reference window
     * and never fire; after a change the window restarts from the
     * new regime, so consecutive boundaries are at least
     * phase_window + 1 epochs apart.
     */
    bool observe(const EpochRecord &rec);

    /** 0-based id of the phase the last observed epoch belongs to. */
    std::uint64_t phase() const { return phase_; }

    /** Epochs observed so far (for tests). */
    std::uint64_t epochsObserved() const { return observed_; }

    /**
     * The feature vector compared across epochs, all integer
     * milli-scaled rates so thresholds are workload-size independent:
     * prefetch accuracy, buffer coverage, suggestion and suppression
     * rates, DRAM row-hit ratio, and aggregate queue pressure.
     */
    static std::vector<std::int64_t> features(const EpochRecord &rec);

  protected:
    void snapshot(SnapshotIo &io) override;

  private:
    TunerConfig config_;
    std::deque<std::vector<std::int64_t>> window_;
    std::uint64_t phase_ = 0;
    std::uint64_t observed_ = 0;
};

} // namespace asd

#endif // ASD_TUNER_PHASE_DETECTOR_HPP
