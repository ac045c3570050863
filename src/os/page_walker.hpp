#ifndef ASD_OS_PAGE_WALKER_HPP
#define ASD_OS_PAGE_WALKER_HPP

/**
 * @file
 * Page-table organizations for the kernel's translation path: a
 * radix-style map with a fixed walk latency, or a hashed/inverted
 * table whose lookup cost grows with the probe chain — so collisions
 * under memory pressure cost real cycles. The OS model selects one
 * via VmConfig::walker; VM mode always walks the radix table.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "snapshot/snapshot.hpp"
#include "vm/vm_config.hpp"

namespace asd
{

/** Bits of a page key reserved for the virtual page number. */
inline constexpr std::uint32_t kOsVpnBits = 40;

/** Bit where the hardware thread starts in a kernel page key. */
inline constexpr std::uint32_t kOsThreadShift = 60;

/**
 * Compose an address-space id and a virtual page number into the key
 * a thread's TLB operates on. Keeping tenants apart in the key space
 * means one tenant's translations can never alias another's.
 */
inline std::uint64_t
osPageKey(std::uint32_t space, std::uint64_t vpn)
{
    return (static_cast<std::uint64_t>(space) << kOsVpnBits) | vpn;
}

/**
 * The kernel-wide key of (@p thread, @p space, @p vpn) that the
 * walkers and the frame pool operate on: each hardware thread runs its
 * own process, so its pages never alias another thread's. Thread 0's
 * keys equal osPageKey(space, vpn).
 */
inline std::uint64_t
osPageKey(std::uint32_t thread, std::uint32_t space, std::uint64_t vpn)
{
    return (static_cast<std::uint64_t>(thread) << kOsThreadShift) |
           osPageKey(space, vpn);
}

/** Abstract page-table organization. */
class PageWalker : public Snapshottable
{
  public:
    virtual ~PageWalker() = default;

    /**
     * Walk the table for @p key.
     * @param pfn filled with the frame on a hit.
     * @param walk_cycles set to the walk cost (charged on hit *and*
     *        miss — a fault first discovers the page is absent).
     * @retval false when no mapping exists (page fault).
     */
    virtual bool lookup(std::uint64_t key, std::uint64_t &pfn,
                        Cycles &walk_cycles) = 0;

    /** Install @p key -> @p pfn; the key must not be mapped. */
    virtual void map(std::uint64_t key, std::uint64_t pfn) = 0;

    /** Remove @p key (reclaim); the key must be mapped. */
    virtual void unmap(std::uint64_t key) = 0;

    /** Live mappings. */
    virtual std::uint64_t mapped() const = 0;

    /** Distinct pages ever mapped. */
    std::uint64_t pagesMapped() const { return pages_mapped_.value(); }

    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const;

  protected:
    /** The distinct-pages counter; organizations snapshot it last. */
    void snapshot(SnapshotIo &io) override;

    Counter pages_mapped_;
};

/**
 * Radix-style organization: an ordered map standing in for the
 * multi-level tree, every walk costing the same @p walk_cycles.
 */
class RadixWalker : public PageWalker
{
  public:
    explicit RadixWalker(Cycles walk_cycles);

    bool lookup(std::uint64_t key, std::uint64_t &pfn,
                Cycles &walk_cycles) override;
    void map(std::uint64_t key, std::uint64_t pfn) override;
    void unmap(std::uint64_t key) override;
    std::uint64_t mapped() const override { return map_.size(); }

  protected:
    void snapshot(SnapshotIo &io) override;

  private:
    // asdlint:allow(snapshot-field-coverage): fixed walk latency from config, set at construction
    Cycles walk_cycles_;
    std::map<std::uint64_t, std::uint64_t> map_;
};

/**
 * Hashed/inverted organization: buckets of collision chains, walk
 * cost proportional to the probes performed. A miss walks the whole
 * chain before faulting.
 */
class HashedWalker : public PageWalker
{
  public:
    /**
     * @param buckets chain-anchor count, rounded up to a power of
     *        two; sized from the frame pool (an inverted table has
     *        one entry per frame).
     * @param probe_cycles cost per chain entry probed.
     */
    HashedWalker(std::uint64_t buckets, Cycles probe_cycles);

    bool lookup(std::uint64_t key, std::uint64_t &pfn,
                Cycles &walk_cycles) override;
    void map(std::uint64_t key, std::uint64_t pfn) override;
    void unmap(std::uint64_t key) override;
    std::uint64_t mapped() const override { return mapped_; }

  protected:
    void snapshot(SnapshotIo &io) override;

  private:
    struct Entry
    {
        std::uint64_t key = 0;
        std::uint64_t pfn = 0;
    };

    std::size_t bucketOf(std::uint64_t key) const;

    // asdlint:allow(snapshot-field-coverage): per-probe latency from config, set at construction
    Cycles probe_cycles_;
    std::vector<std::vector<Entry>> buckets_;
    std::uint64_t mapped_ = 0;
};

/** Build the walker VmConfig::walker selects (for the OS model). */
std::unique_ptr<PageWalker> makePageWalker(const VmConfig &vm,
                                           Cycles hashed_probe_cycles,
                                           std::uint64_t frames);

} // namespace asd

#endif // ASD_OS_PAGE_WALKER_HPP
