#ifndef ASD_OS_OS_MMU_HPP
#define ASD_OS_OS_MMU_HPP

/**
 * @file
 * Per-hardware-thread MMU: a private TLB over the machine's shared
 * OsKernel, in VM mode and under the OS model alike. The trace CPU
 * calls translate() on every access and receives the physical address
 * plus the stall to charge; everything downstream (caches, memory
 * controller, ASD) then sees physical addresses only. The TLB is keyed
 * on (address space, vpn) so tenants never alias; misses go through
 * the kernel's walk and, for absent pages, its fault path.
 */

#include <cstdint>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "os/kernel.hpp"
#include "trace/mem_access.hpp"
#include "vm/tlb.hpp"

namespace asd
{

/** Memory-management unit for one hardware thread. */
class OsMmu : public Snapshottable
{
  public:
    /** @param kernel shared kernel; must outlive the OsMmu. */
    OsMmu(const VmConfig &vm, OsKernel &kernel, std::uint32_t thread);

    /**
     * Translate @p access's virtual byte address.
     * @param stall_cycles set to the translation stall to charge
     *        before the access may issue (0 on a TLB hit).
     * @return the physical byte address.
     */
    Addr translate(const MemAccess &access, Cycles &stall_cycles);

    const Tlb &tlb() const { return tlb_; }

    /** Total translation stall charged by this thread so far. */
    std::uint64_t stallCycles() const { return stall_cycles_.value(); }

    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const;

  protected:
    void snapshot(SnapshotIo &io) override;

  private:
    // asdlint:allow(snapshot-field-coverage): wiring to the shared kernel, fixed at construction
    OsKernel &kernel_;
    // asdlint:allow(snapshot-field-coverage): translation granule derived from config at construction
    std::uint64_t page_bytes_;
    // asdlint:allow(snapshot-field-coverage): thread id is wiring configuration fixed at construction
    std::uint32_t thread_;
    Tlb tlb_;
    Counter stall_cycles_;
};

} // namespace asd

#endif // ASD_OS_OS_MMU_HPP
