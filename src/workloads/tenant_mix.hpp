#ifndef ASD_WORKLOADS_TENANT_MIX_HPP
#define ASD_WORKLOADS_TENANT_MIX_HPP

/**
 * @file
 * Multi-tenant scenario engine. Interleaves N tenant instances of a
 * base synthetic benchmark into one trace: each access is drawn from
 * a Zipfian-skewed slot distribution (slot i carries weight
 * 1/(i+1)^s, so a few hot tenants dominate), every tenant runs its
 * own deterministically derived variant of the base workload (own
 * seed, rotated phase schedule — per-tenant phase churn), and
 * tenants depart after a bounded lifetime to be replaced by a fresh
 * arrival with a brand-new address-space id. Records are stamped
 * with the owning tenant's space id so the OS model keeps the
 * tenants' page tables apart — and their fault pressure evicts each
 * other's frames.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "trace/synthetic.hpp"

namespace asd
{

/** Shape of a multi-tenant mix. */
struct TenantMixConfig
{
    /** Off by default: single-tenant traces, space id always 0. */
    bool enabled = false;

    /** Concurrently active tenants (>= 1). */
    std::uint32_t slots = 4;

    /** Zipf exponent of the per-slot intensity skew (0 = uniform). */
    double zipf_s = 1.0;

    /**
     * Mean tenant lifetime in mix accesses before departure; a
     * departed slot is immediately refilled by a fresh arrival.
     * 0 = tenants never depart.
     */
    std::uint64_t mean_lifetime = 50000;

    /** Seed for slot draws and lifetime draws. */
    std::uint64_t seed = 0x7e1ULL;
};

/**
 * TraceSource interleaving per-tenant SyntheticTraceGenerators.
 * Fully deterministic for a given (config, base, total) triple; the
 * snapshot captures every cursor, so a restored run resumes
 * mid-mix bit-identically.
 */
class TenantMixSource : public TraceSource
{
  public:
    /**
     * @param base  the benchmark every tenant runs a variant of.
     * @param total accesses the mix emits before exhausting.
     */
    TenantMixSource(const TenantMixConfig &config,
                    const SyntheticConfig &base, std::uint64_t total);

    bool next(MemAccess &out) override;
    void reset() override;

    /** Tenants that ever started (including the initial slots). */
    std::uint64_t arrivals() const { return arrivals_.value(); }

    /** Tenants that departed. */
    std::uint64_t departures() const { return departures_.value(); }

    /** Concurrently active tenants (fixed at config.slots). */
    std::uint32_t activeTenants() const { return config_.slots; }

    /** @p prefix.{arrivals,departures,active}. */
    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const override;

  protected:
    void snapshot(SnapshotIo &io) override;

  private:
    struct Slot
    {
        std::uint32_t asid = 0;
        std::uint64_t lifetime_left = 0;
        std::unique_ptr<SyntheticTraceGenerator> generator;
    };

    /** The base workload as tenant @p asid runs it. */
    SyntheticConfig tenantConfig(std::uint32_t asid) const;
    std::uint64_t drawLifetime();
    void admit(Slot &slot);

    // asdlint:allow(snapshot-field-coverage): configuration fixed at construction
    TenantMixConfig config_;
    // asdlint:allow(snapshot-field-coverage): see config_
    SyntheticConfig base_;
    // asdlint:allow(snapshot-field-coverage): see config_
    std::uint64_t total_;
    // asdlint:allow(snapshot-field-coverage): Zipf slot weights derived from config_ in the constructor
    std::unique_ptr<DiscreteSampler> slot_sampler_;
    Rng rng_;
    std::vector<Slot> slots_;
    std::uint64_t emitted_ = 0;
    std::uint32_t next_asid_ = 0;
    Counter arrivals_;
    Counter departures_;
    // asdlint:allow(snapshot-field-coverage): config_.slots, set once at construction
    Counter active_;
};

} // namespace asd

#endif // ASD_WORKLOADS_TENANT_MIX_HPP
