#ifndef ASD_OS_FRAME_POOL_HPP
#define ASD_OS_FRAME_POOL_HPP

/**
 * @file
 * Finite physical-frame pool with CLOCK (second-chance) reclaim, the
 * kernel's frame source under the OS model (VM mode draws from the
 * unbounded FrameAllocator instead): frames are handed out in a
 * deterministic shuffled order until the pool is full, after which
 * every new page steals a victim chosen by sweeping a clock hand past
 * referenced frames. The pool only tracks frame metadata;
 * fault/reclaim latencies are charged by the OsKernel.
 */

#include <cstdint>
#include <vector>

#include "common/random.hpp"
#include "snapshot/snapshot.hpp"

namespace asd
{

/** The page evicted by a reclaim, as the kernel needs to undo it. */
struct OsVictim
{
    std::uint64_t key = 0; //!< kernel page key (see osPageKey)
    bool dirty = false;
};

/** Fixed-size frame pool with second-chance eviction. */
class FramePool : public Snapshottable
{
  public:
    /**
     * @param frames pool size; must be positive.
     * @param seed   deterministic shuffle of the hand-out order, so
     *               physical placement fragments virtual streams the
     *               way a long-running OS's free list would.
     */
    FramePool(std::uint64_t frames, std::uint64_t seed);

    /**
     * Claim a frame for kernel page key @p key, reclaiming the CLOCK
     * victim when no free frame remains. The claimed frame starts
     * referenced, with its dirty bit set iff @p is_write.
     * @param evicted set when a resident page was reclaimed.
     * @param victim  filled with the evicted page when @p evicted.
     * @return the claimed physical frame number.
     */
    std::uint64_t acquire(std::uint64_t key, bool is_write,
                          bool &evicted, OsVictim &victim);

    /** Record a touch of resident frame @p pfn (sets R, and D on writes). */
    void markAccess(std::uint64_t pfn, bool is_write);

    /** Pool size in frames. */
    std::uint64_t size() const { return frames_.size(); }

    /** Frames currently backing a page. */
    std::uint64_t resident() const { return resident_; }

  protected:
    void snapshot(SnapshotIo &io) override;

  private:
    struct Frame
    {
        std::uint64_t key = 0;
        bool valid = false;
        bool referenced = false;
        bool dirty = false;
    };

    std::vector<Frame> frames_;
    // asdlint:allow(snapshot-field-coverage): hand-out permutation derived from the seed in the constructor
    std::vector<std::uint64_t> free_order_;
    std::uint64_t free_pos_ = 0; //!< next unconsumed free_order_ slot
    std::uint64_t hand_ = 0;     //!< CLOCK hand
    std::uint64_t resident_ = 0;
};

} // namespace asd

#endif // ASD_OS_FRAME_POOL_HPP
