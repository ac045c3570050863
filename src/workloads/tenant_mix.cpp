#include "workloads/tenant_mix.hpp"

#include <array>
#include <cmath>

#include "common/log.hpp"

namespace asd
{

namespace
{

/** splitmix64 finalizer; decorrelates per-tenant seeds. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

TenantMixSource::TenantMixSource(const TenantMixConfig &config,
                                 const SyntheticConfig &base,
                                 std::uint64_t total)
    : config_(config), base_(base), total_(total), rng_(config.seed)
{
    if (config_.slots == 0)
        fatal("tenants: at least one slot required");
    if (config_.zipf_s < 0.0)
        fatal("tenants: zipf_s must be non-negative");
    std::vector<double> weights(config_.slots);
    for (std::uint32_t i = 0; i < config_.slots; ++i)
        weights[i] =
            1.0 / std::pow(static_cast<double>(i + 1), config_.zipf_s);
    slot_sampler_ = std::make_unique<DiscreteSampler>(weights);
    active_.inc(config_.slots);
    reset();
}

SyntheticConfig
TenantMixSource::tenantConfig(std::uint32_t asid) const
{
    SyntheticConfig config = base_;
    config.seed = mix64(base_.seed ^
                        (static_cast<std::uint64_t>(asid) << 32 |
                         asid));
    // Per-tenant phase churn: each tenant starts its phase schedule
    // at a different point, so phase boundaries never line up across
    // the mix.
    if (config.phases.size() > 1) {
        const std::size_t shift = asid % config.phases.size();
        std::vector<PhaseProfile> rotated;
        rotated.reserve(config.phases.size());
        for (std::size_t i = 0; i < config.phases.size(); ++i)
            rotated.push_back(
                config.phases[(i + shift) % config.phases.size()]);
        config.phases = std::move(rotated);
    }
    // A tenant only ever emits a share of the mix; make its own
    // generator inexhaustible over the mix's length.
    config.total_accesses = total_;
    return config;
}

std::uint64_t
TenantMixSource::drawLifetime()
{
    if (config_.mean_lifetime == 0)
        return 0;
    // Uniform on [mean/2, 3*mean/2] keeps the requested mean with a
    // spread that staggers departures across slots.
    const std::uint64_t lo = config_.mean_lifetime / 2 + 1;
    const std::uint64_t hi =
        config_.mean_lifetime + config_.mean_lifetime / 2;
    return rng_.nextInRange(lo, hi < lo ? lo : hi);
}

void
TenantMixSource::admit(Slot &slot)
{
    slot.asid = next_asid_++;
    slot.lifetime_left = drawLifetime();
    slot.generator = std::make_unique<SyntheticTraceGenerator>(
        tenantConfig(slot.asid));
    arrivals_.inc();
}

void
TenantMixSource::reset()
{
    rng_ = Rng(config_.seed);
    emitted_ = 0;
    next_asid_ = 0;
    arrivals_.reset();
    departures_.reset();
    slots_.clear();
    slots_.resize(config_.slots);
    for (Slot &slot : slots_)
        admit(slot);
}

bool
TenantMixSource::next(MemAccess &out)
{
    if (emitted_ >= total_)
        return false;
    ++emitted_;
    Slot &slot = slots_[slot_sampler_->sample(rng_)];
    if (config_.mean_lifetime > 0 && slot.lifetime_left == 0) {
        departures_.inc();
        admit(slot);
    }
    panicIfNot(slot.generator->next(out),
               "tenants: per-tenant generator exhausted early");
    out.space = slot.asid;
    if (config_.mean_lifetime > 0)
        --slot.lifetime_left;
    return true;
}

void
TenantMixSource::registerStats(StatRegistry &registry,
                               const std::string &prefix) const
{
    registry.add(prefix + ".arrivals", arrivals_);
    registry.add(prefix + ".departures", departures_);
    registry.add(prefix + ".active", active_);
}

void
TenantMixSource::snapshot(SnapshotIo &io)
{
    io.rng(rng_);
    io.u64(emitted_);
    io.u32(next_asid_);
    io.counter(arrivals_);
    io.counter(departures_);
    io.expect(static_cast<std::uint32_t>(slots_.size()),
              "tenants: slot count mismatch");
    for (Slot &slot : slots_) {
        std::uint32_t asid = slot.asid;
        io.u32(asid);
        io.check(asid < next_asid_, "tenants: slot asid out of range");
        if (io.loading() &&
            (slot.asid != asid || slot.generator == nullptr)) {
            // Rebuild the departed-and-replaced tenant's generator
            // from its deterministically derived config, then restore
            // its cursor.
            slot.asid = asid;
            slot.generator =
                std::make_unique<SyntheticTraceGenerator>(
                    tenantConfig(asid));
        }
        io.u64(slot.lifetime_left);
        io.component(*slot.generator);
    }
}

} // namespace asd
