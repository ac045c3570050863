#ifndef ASD_TUNER_TUNER_RECORDER_HPP
#define ASD_TUNER_TUNER_RECORDER_HPP

/**
 * @file
 * Per-decision tuner telemetry: one TunerDecision per reconfiguration
 * point, carrying what the phase detector saw, how much shadow budget
 * the decision spent, what was adopted, and — once the live run has
 * advanced one shadow horizon past the decision — the realized
 * progress to hold against the winner's prediction. Every field is an
 * integer derived from deterministic simulation state, so the CSV and
 * JSON exports are byte-stable across runs and thread counts (the
 * determinism_diff --tuner mode pins this).
 */

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/asd_config.hpp"
#include "snapshot/snapshot.hpp"

namespace asd
{

/** One reconfiguration decision. */
struct TunerDecision
{
    std::uint64_t decision = 0; //!< 0-based decision index
    Cycle cycle = 0;            //!< cycle the reconfiguration applied
    std::uint64_t epoch = 0;    //!< epoch whose boundary triggered it
    std::uint64_t phase = 0;    //!< phase id entered

    std::uint32_t candidates = 0; //!< shadow forks evaluated
    std::uint64_t shadow_cycles = 0; //!< simulated cycles spent

    bool adopted_change = false; //!< false = incumbent kept
    AsdTuning adopted;           //!< tuning in force after the decision

    /** Retired accesses of the incumbent's shadow at the horizon. */
    std::uint64_t incumbent_shadow_accesses = 0;

    /** Retired accesses of the winner's shadow at the horizon. */
    std::uint64_t winner_shadow_accesses = 0;

    /** Live retired accesses when the decision applied. */
    std::uint64_t accesses_at_decision = 0;

    /** Live retired accesses one horizon later (realized_valid). */
    std::uint64_t realized_accesses = 0;
    bool realized_valid = false;
};

/**
 * @p t's snapshot layout, shared by the decision log and a tuned run's
 * "tun" section. On load only the int range of the policies is
 * checked; a caller that rebuilds a machine from @p t checks its shape.
 */
void snapshotTuning(SnapshotIo &io, AsdTuning &t);

/** Accumulates decisions and exports them. */
class TunerRecorder : public Snapshottable
{
  public:
    /** Append @p decision (realized fields typically still unset). */
    void append(const TunerDecision &decision);

    /** Fill decision @p index's realized measurement. */
    void realize(std::uint64_t index, std::uint64_t accesses);

    const std::vector<TunerDecision> &decisions() const
    {
        return decisions_;
    }

  protected:
    void snapshot(SnapshotIo &io) override;

  private:
    std::vector<TunerDecision> decisions_;
};

/** One row per decision; stable header first. */
void writeTunerCsv(const std::vector<TunerDecision> &decisions,
                   std::ostream &out);

/** Complete asdsim/tuner/v1 JSON document. */
std::string tunerJson(const std::vector<TunerDecision> &decisions);

// File helpers: create parent directories, write, flush.
// @retval false on any I/O failure (after warn()).
bool saveTunerCsv(const std::vector<TunerDecision> &decisions,
                  const std::string &path);
bool saveTunerJson(const std::vector<TunerDecision> &decisions,
                   const std::string &path);

} // namespace asd

#endif // ASD_TUNER_TUNER_RECORDER_HPP
