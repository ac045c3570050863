#include "os/os_mmu.hpp"

#include "common/log.hpp"

namespace asd
{

OsMmu::OsMmu(const VmConfig &vm, OsKernel &kernel,
             std::uint32_t thread)
    : kernel_(kernel),
      page_bytes_(vm.pageBytes()),
      thread_(thread),
      tlb_(vm.tlb)
{
    panicIfNot(page_bytes_ > 0, "os: zero translation granule");
    kernel_.registerTlb(thread_, &tlb_);
}

Addr
OsMmu::translate(const MemAccess &access, Cycles &stall_cycles)
{
    const std::uint64_t vpn = access.addr / page_bytes_;
    const Addr offset = access.addr % page_bytes_;
    const bool is_write = access.op == MemOp::Write;
    const std::uint64_t key = osPageKey(access.space, vpn);
    if (const auto pfn = tlb_.lookup(key)) {
        // The hardware set R/D bits on the TLB hit; CLOCK must see
        // them or it would reclaim hot pages.
        kernel_.markAccess(*pfn, is_write);
        stall_cycles = 0;
        return *pfn * page_bytes_ + offset;
    }
    const OsTouchResult result =
        kernel_.touch(thread_, access.space, vpn, is_write);
    tlb_.insert(key, result.pfn);
    stall_cycles = result.stall_cycles;
    stall_cycles_.inc(stall_cycles);
    return result.pfn * page_bytes_ + offset;
}

void
OsMmu::registerStats(StatRegistry &registry,
                     const std::string &prefix) const
{
    tlb_.registerStats(registry, prefix + ".tlb");
    registry.add(prefix + ".stall_cycles", stall_cycles_);
}

void
OsMmu::snapshot(SnapshotIo &io)
{
    io.component(tlb_);
    io.counter(stall_cycles_);
}

} // namespace asd
