#ifndef ASD_VM_FRAME_ALLOCATOR_HPP
#define ASD_VM_FRAME_ALLOCATOR_HPP

/**
 * @file
 * Physical-frame allocation policies: the kernel's unbounded frame
 * source in VM mode. One allocator is shared by all hardware threads,
 * so under Sequential/RandomShuffle placement the threads compete for
 * frames and interleave in physical memory the way co-running
 * processes do under a real OS.
 */

#include <cstdint>
#include <unordered_map>

#include "common/random.hpp"
#include "common/stats.hpp"
#include "snapshot/snapshot.hpp"
#include "vm/vm_config.hpp"

namespace asd
{

/**
 * Hands out physical frame numbers for never-before-seen virtual
 * pages. Deterministic for a given VmConfig (RandomShuffle draws from
 * a dedicated xoshiro PRNG seeded by VmConfig::seed), so runs remain
 * reproducible.
 */
class FrameAllocator : public Snapshottable
{
  public:
    explicit FrameAllocator(const VmConfig &config);

    /**
     * Allocate a frame for virtual page @p vpn of any thread.
     * Identity placement maps equal page numbers of different threads
     * to the same frame (matching the untranslated simulator, where
     * thread address spaces alias freely); the other policies hand
     * every allocation a distinct frame and fatal() when physical
     * memory is exhausted.
     */
    std::uint64_t allocate(std::uint64_t vpn);

    /** Frames handed out so far (Identity allocations included). */
    std::uint64_t allocated() const { return allocated_.value(); }

    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const;

  protected:
    void snapshot(SnapshotIo &io) override;

  private:
    std::uint64_t nextFreeFrame();
    std::uint64_t randomFreeFrame();

    VmConfig config_;
    Rng rng_;

    /** Frames handed out by the bump/shuffle policies. */
    std::uint64_t used_ = 0;

    /**
     * Lazily materialized Fisher-Yates permutation of the frame pool:
     * position i holds the i-th randomly drawn frame. Only touched
     * positions are stored, so memory scales with pages mapped, not
     * with physical memory size.
     */
    std::unordered_map<std::uint64_t, std::uint64_t> shuffle_;

    Counter allocated_;
};

} // namespace asd

#endif // ASD_VM_FRAME_ALLOCATOR_HPP
