#ifndef ASD_CORE_ADAPTIVE_SCHEDULER_HPP
#define ASD_CORE_ADAPTIVE_SCHEDULER_HPP

/**
 * @file
 * Adaptive Scheduling (section 3.5): choose among the five LPQ
 * prioritization policies from feedback about how often regular
 * commands are delayed by in-flight prefetches. Policy 1 is the most
 * conservative (LPQ issues only when the controller is empty), policy
 * 5 the least (timestamp order against the CAQ head). The policy
 * steps by one each epoch according to hysteresis thresholds on the
 * conflict count.
 */

#include <cstdint>

#include "common/stats.hpp"
#include "core/asd_config.hpp"
#include "snapshot/snapshot.hpp"

namespace asd
{

/** The adaptive (or pinned) LPQ policy selector. */
class AdaptiveScheduler : public Snapshottable
{
  public:
    explicit AdaptiveScheduler(const AdaptiveSchedConfig &config);

    /** Policy in force right now (1..5). */
    int policy() const { return policy_; }

    /** A regular command was delayed by a prefetch this epoch. */
    void notifyConflict();

    /** Epoch boundary: re-evaluate the policy from the feedback. */
    void epochEnd();

    /** Conflicts recorded in the current (unfinished) epoch. */
    std::uint32_t epochConflicts() const { return epoch_conflicts_; }

    /**
     * Online reconfiguration: swap in a new policy configuration.
     * Pinning (adaptive = false) takes effect immediately — the
     * current policy jumps to fixed_policy. Un-pinning keeps the
     * current policy as the adaptive walk's starting point
     * (start_policy is a construction-time notion only). Conflict
     * feedback for the in-progress epoch is preserved either way.
     */
    void applyPolicyConfig(const AdaptiveSchedConfig &config);

    /**
     * Lifetime conflict count. epochEnd() zeroes epochConflicts(), so
     * per-epoch consumers sampling *after* the boundary (the telemetry
     * recorder) take deltas of this instead.
     */
    std::uint64_t totalConflicts() const
    {
        return total_conflicts_.value();
    }

    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const;

  protected:
    void snapshot(SnapshotIo &io) override;

  private:
    AdaptiveSchedConfig config_;
    int policy_;
    std::uint32_t epoch_conflicts_ = 0;

    Counter total_conflicts_;
    Counter policy_up_;   //!< steps toward aggressive
    Counter policy_down_; //!< steps toward conservative
};

} // namespace asd

#endif // ASD_CORE_ADAPTIVE_SCHEDULER_HPP
