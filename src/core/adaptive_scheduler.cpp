#include "core/adaptive_scheduler.hpp"

#include "common/log.hpp"

namespace asd
{

AdaptiveScheduler::AdaptiveScheduler(const AdaptiveSchedConfig &config)
    : config_(config),
      policy_(config.adaptive ? config.start_policy
                              : config.fixed_policy)
{
    if (policy_ < 1 || policy_ > 5)
        fatal("AdaptiveScheduler: policy must be in 1..5");
    if (config_.low_watermark > config_.high_watermark)
        fatal("AdaptiveScheduler: low watermark above high watermark");
}

void
AdaptiveScheduler::applyPolicyConfig(const AdaptiveSchedConfig &config)
{
    if (config.fixed_policy < 1 || config.fixed_policy > 5)
        fatal("AdaptiveScheduler: policy must be in 1..5");
    if (config.low_watermark > config.high_watermark)
        fatal("AdaptiveScheduler: low watermark above high watermark");
    config_ = config;
    if (!config_.adaptive)
        policy_ = config_.fixed_policy;
}

void
AdaptiveScheduler::notifyConflict()
{
    ++epoch_conflicts_;
    total_conflicts_.inc();
}

void
AdaptiveScheduler::epochEnd()
{
    if (config_.adaptive) {
        if (epoch_conflicts_ > config_.high_watermark && policy_ > 1) {
            --policy_;
            policy_down_.inc();
        } else if (epoch_conflicts_ < config_.low_watermark &&
                   policy_ < 5) {
            ++policy_;
            policy_up_.inc();
        }
    }
    epoch_conflicts_ = 0;
}

void
AdaptiveScheduler::snapshot(SnapshotIo &io)
{
    io.u32(policy_);
    io.check(policy_ >= 1 && policy_ <= 5, "LPQ policy out of range");
    io.u32(epoch_conflicts_);
    io.counter(total_conflicts_);
    io.counter(policy_up_);
    io.counter(policy_down_);
}

void
AdaptiveScheduler::registerStats(StatRegistry &registry,
                                 const std::string &prefix) const
{
    registry.add(prefix + ".conflicts", total_conflicts_);
    registry.add(prefix + ".policy_up", policy_up_);
    registry.add(prefix + ".policy_down", policy_down_);
}

} // namespace asd
