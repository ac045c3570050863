#include "os/kernel.hpp"

#include <array>

#include "common/log.hpp"

namespace asd
{

OsKernel::OsKernel(const OsConfig &config, const VmConfig &vm)
    : config_(config),
      walker_(config.enabled
                  ? makePageWalker(vm, config.hashed_probe_cycles,
                                   config.frames)
                  : std::make_unique<RadixWalker>(vm.tlb.walk_cycles)),
      rng_(config.seed ^ 0x05c0ffeeULL)
{
    if (config_.major_fault_frac < 0.0 ||
        config_.major_fault_frac > 1.0)
        fatal("os: major_fault_frac must be in [0, 1]");
    if (config_.enabled)
        pool_.emplace(config.frames, config.seed);
    else
        allocator_.emplace(vm);
}

void
OsKernel::registerTlb(std::uint32_t thread, Tlb *tlb)
{
    if (thread >> (64 - kOsThreadShift) != 0)
        fatal("os: hardware thread " + std::to_string(thread) +
              " overflows the page key");
    if (tlbs_.size() <= thread)
        tlbs_.resize(thread + 1, nullptr);
    tlbs_[thread] = tlb;
}

OsTouchResult
OsKernel::touch(std::uint32_t thread, std::uint32_t space,
                std::uint64_t vpn, bool is_write)
{
    if (space >> (kOsThreadShift - kOsVpnBits) != 0)
        fatal("os: address-space id " + std::to_string(space) +
              " overflows the page key");
    OsTouchResult result;
    const std::uint64_t key = osPageKey(thread, space, vpn);
    Cycles walk = 0;
    const bool mapped = walker_->lookup(key, result.pfn, walk);
    // A fault first pays the walk that found the page absent.
    result.stall_cycles = walk;
    if (mapped) {
        markAccess(result.pfn, is_write);
    } else {
        if (allocator_)
            result.pfn = allocator_->allocate(vpn);
        else
            fault(key, is_write, result);
        walker_->map(key, result.pfn);
    }
    stall_cycles_.inc(result.stall_cycles);
    return result;
}

void
OsKernel::fault(std::uint64_t key, bool is_write, OsTouchResult &result)
{
    // The fault service time, then reclaim if the pool is full.
    result.major_fault = rng_.chance(config_.major_fault_frac);
    result.minor_fault = !result.major_fault;
    if (result.major_fault) {
        major_faults_.inc();
        result.stall_cycles += config_.major_fault_cycles;
    } else {
        minor_faults_.inc();
        result.stall_cycles += config_.minor_fault_cycles;
    }

    bool evicted = false;
    OsVictim victim;
    result.pfn = pool_->acquire(key, is_write, evicted, victim);
    if (!evicted)
        return;
    result.reclaimed = true;
    reclaims_.inc();
    result.stall_cycles += config_.reclaim_cycles;
    if (victim.dirty) {
        result.wrote_back = true;
        writebacks_.inc();
        result.stall_cycles += config_.writeback_cycles;
    }
    walker_->unmap(victim.key);
    // Only the owning thread's TLB can hold the translation, under
    // its thread-free key.
    const std::uint64_t owner = victim.key >> kOsThreadShift;
    const std::uint64_t tlb_key =
        victim.key & ((1ULL << kOsThreadShift) - 1);
    Tlb *tlb = owner < tlbs_.size() ? tlbs_[owner] : nullptr;
    if (tlb && tlb->invalidate(tlb_key))
        shootdowns_.inc();
}

void
OsKernel::registerStats(StatRegistry &registry,
                        const std::string &prefix) const
{
    if (pool_) {
        registry.add(prefix + ".minor_faults", minor_faults_);
        registry.add(prefix + ".major_faults", major_faults_);
        registry.add(prefix + ".reclaims", reclaims_);
        registry.add(prefix + ".writebacks", writebacks_);
        registry.add(prefix + ".shootdowns", shootdowns_);
    }
    registry.add(prefix + ".stall_cycles", stall_cycles_);
    walker_->registerStats(registry, prefix);
    if (allocator_)
        allocator_->registerStats(registry, prefix);
}

void
OsKernel::snapshot(SnapshotIo &io)
{
    io.expect(pool_.has_value(),
              "os: frame-pool vs frame-allocator mismatch");
    if (pool_)
        io.component(*pool_);
    else
        io.component(*allocator_);
    io.component(*walker_);
    io.rng(rng_);
    io.counter(minor_faults_);
    io.counter(major_faults_);
    io.counter(reclaims_);
    io.counter(writebacks_);
    io.counter(shootdowns_);
    io.counter(stall_cycles_);
}

} // namespace asd
