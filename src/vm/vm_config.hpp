#ifndef ASD_VM_VM_CONFIG_HPP
#define ASD_VM_VM_CONFIG_HPP

/**
 * @file
 * Configuration of address translation. The paper's ASD prefetcher
 * lives in the memory controller and therefore observes *physical*
 * addresses; how the OS maps virtual pages onto physical frames
 * shapes the stream lengths it can see (a long virtual stream
 * fragments at every page boundary under random frame allocation).
 * This config selects the translation granule and TLB geometry for
 * every translated run, plus VM mode's frame placement policy and the
 * OS model's walker. VM mode is disabled by default: addresses pass
 * through untranslated and runs are bit-identical to a build without
 * translation.
 */

#include <cstdint>

#include "common/types.hpp"

namespace asd
{

/** How the frame allocator places virtual pages in physical memory. */
enum class FrameAllocPolicy : std::uint8_t
{
    /** Frame = page number (modulo physical size): no fragmentation. */
    Identity,

    /** First-touch bump allocation: pages touched in order stay
        contiguous; interleaved touch orders fragment. */
    Sequential,

    /** Uniformly random free frame per page: every page boundary is a
        potential stream break (a long-running OS's fragmented free
        list). */
    RandomShuffle,

    /** 2 MB huge pages, randomly placed: contiguous inside each huge
        frame, so streams survive far longer. The translation granule
        becomes huge_bytes and one TLB entry covers the whole huge
        page. */
    HugePage,
};

/**
 * Page-table organization the kernel walks under the OS model. VM
 * mode always walks the radix table at TlbConfig::walk_cycles.
 */
enum class PageWalkerKind : std::uint8_t
{
    /** Radix-style map with a fixed walk latency per miss. */
    Radix,

    /** Hashed/inverted table: walk cost grows with the probe chain
        length, so collisions under memory pressure cost real cycles. */
    Hashed,
};

/** Translation lookaside buffer geometry and cost. */
struct TlbConfig
{
    /** Total entries (sets x ways). */
    std::uint32_t entries = 64;

    /** Associativity; must divide entries. */
    std::uint32_t ways = 4;

    /** Cycles a core stalls issuing an access on a TLB miss. */
    Cycles walk_cycles = 60;
};

/** Granule, TLB, and VM-mode placement for the per-thread MMUs. */
struct VmConfig
{
    /**
     * VM mode: translate over the unbounded frame allocator. Off by
     * default: bit-identical to the pre-VM simulator.
     */
    bool enabled = false;

    FrameAllocPolicy policy = FrameAllocPolicy::Identity;

    /** Base page size; must be a power of two >= the line size. */
    std::uint64_t page_bytes = 4096;

    /** Huge-page granule for FrameAllocPolicy::HugePage. */
    std::uint64_t huge_bytes = 2ULL << 20;

    /** Physical memory backing the frame pool. */
    std::uint64_t phys_bytes = 4ULL << 30;

    /** Seed for the random-shuffle placements. */
    std::uint64_t seed = 0x5eedULL;

    /** Page-table organization under the OS model. */
    PageWalkerKind walker = PageWalkerKind::Radix;

    TlbConfig tlb;

    /** Effective translation granule for the chosen policy. */
    std::uint64_t
    pageBytes() const
    {
        return policy == FrameAllocPolicy::HugePage ? huge_bytes
                                                    : page_bytes;
    }

    /** Physical frames available at the translation granule. */
    std::uint64_t
    frames() const
    {
        return phys_bytes / pageBytes();
    }
};

} // namespace asd

#endif // ASD_VM_VM_CONFIG_HPP
