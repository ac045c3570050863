#ifndef ASD_OS_KERNEL_HPP
#define ASD_OS_KERNEL_HPP

/**
 * @file
 * The kernel behind every translated run; on a TLB miss the
 * per-thread OsMmu calls touch(), which walks the page table and maps
 * an absent page. Where the frame comes from depends on the mode:
 *
 * - OS model (OsConfig::enabled): demand paging over a finite
 *   FramePool. An absent page takes a minor or major fault; a full
 *   pool reclaims a CLOCK victim (unmapping it and shooting its
 *   translation out of the owner's TLB, with a writeback charge when
 *   dirty). All state is shared across threads and tenants — one
 *   tenant's fault pressure evicts another tenant's frames, exactly
 *   the cross-tenant interference the multi-tenant scenarios study.
 * - VM mode (VmConfig::enabled alone): frames come for free and
 *   forever from the unbounded FrameAllocator under its placement
 *   policy, the walk is the radix table's fixed walk_cycles, and no
 *   fault, reclaim or writeback is charged.
 */

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/random.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "os/frame_pool.hpp"
#include "os/os_config.hpp"
#include "os/page_walker.hpp"
#include "vm/frame_allocator.hpp"
#include "vm/tlb.hpp"

namespace asd
{

/** What one fault-path invocation did and cost. */
struct OsTouchResult
{
    std::uint64_t pfn = 0;
    Cycles stall_cycles = 0;
    bool minor_fault = false;
    bool major_fault = false;
    bool reclaimed = false;
    bool wrote_back = false;
};

/** Shared translation kernel; one instance per simulated machine. */
class OsKernel : public Snapshottable
{
  public:
    /**
     * @param config the OS model; when disabled the kernel runs in VM
     *        mode over a FrameAllocator built from @p vm.
     * @param vm supplies granule, TLB geometry, walker selection and
     *        the VM-mode placement policy.
     */
    OsKernel(const OsConfig &config, const VmConfig &vm);

    /**
     * Register hardware thread @p thread's TLB for shootdowns; every
     * per-thread OsMmu TLB must be registered so reclaim can
     * invalidate stale translations.
     */
    void registerTlb(std::uint32_t thread, Tlb *tlb);

    /**
     * Full translation path for a TLB miss on (@p space, @p vpn) of
     * hardware thread @p thread: walk, and map the page if absent.
     */
    OsTouchResult touch(std::uint32_t thread, std::uint32_t space,
                        std::uint64_t vpn, bool is_write);

    /** Record a TLB-hit access so CLOCK sees R (and D) bits. */
    void
    markAccess(std::uint64_t pfn, bool is_write)
    {
        if (pool_)
            pool_->markAccess(pfn, is_write);
    }

    std::uint64_t minorFaults() const { return minor_faults_.value(); }
    std::uint64_t majorFaults() const { return major_faults_.value(); }
    std::uint64_t reclaims() const { return reclaims_.value(); }
    std::uint64_t writebacks() const { return writebacks_.value(); }
    std::uint64_t shootdowns() const { return shootdowns_.value(); }
    std::uint64_t stallCycles() const { return stall_cycles_.value(); }
    std::uint64_t pagesMapped() const
    {
        return walker_->pagesMapped();
    }

    /** Frames backing a page in the OS model's pool (0 in VM mode). */
    std::uint64_t residentPages() const
    {
        return pool_ ? pool_->resident() : 0;
    }

    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const;

  protected:
    void snapshot(SnapshotIo &io) override;

  private:
    /** Fault in @p key from the pool, reclaiming when it is full. */
    void fault(std::uint64_t key, bool is_write, OsTouchResult &result);

    // asdlint:allow(snapshot-field-coverage): configuration fixed at construction
    OsConfig config_;
    std::optional<FramePool> pool_;           //!< OS model
    std::optional<FrameAllocator> allocator_; //!< VM mode
    std::unique_ptr<PageWalker> walker_;
    Rng rng_; //!< major-vs-minor fault draws
    // asdlint:allow(snapshot-field-coverage): wiring to the per-thread TLBs, rebuilt at construction
    std::vector<Tlb *> tlbs_;

    Counter minor_faults_;
    Counter major_faults_;
    Counter reclaims_;
    Counter writebacks_;
    Counter shootdowns_;
    Counter stall_cycles_;
};

} // namespace asd

#endif // ASD_OS_KERNEL_HPP
