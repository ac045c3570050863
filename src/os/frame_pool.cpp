#include "os/frame_pool.hpp"

#include <numeric>

#include "common/log.hpp"

namespace asd
{

FramePool::FramePool(std::uint64_t frames, std::uint64_t seed)
{
    if (frames == 0)
        fatal("os: frame pool must hold at least one frame");
    frames_.resize(frames);
    free_order_.resize(frames);
    std::iota(free_order_.begin(), free_order_.end(), 0ULL);
    // Deterministic Fisher-Yates over the hand-out order: first
    // touches land on scattered frames, like a fragmented free list.
    Rng rng(seed);
    for (std::uint64_t i = frames - 1; i > 0; --i) {
        const std::uint64_t j = rng.nextBelow(i + 1);
        std::swap(free_order_[i], free_order_[j]);
    }
}

std::uint64_t
FramePool::acquire(std::uint64_t key, bool is_write, bool &evicted,
                   OsVictim &victim)
{
    std::uint64_t pfn;
    if (free_pos_ < free_order_.size()) {
        pfn = free_order_[free_pos_++];
        evicted = false;
    } else {
        // CLOCK: sweep past referenced frames (clearing R as the
        // second chance) until an unreferenced victim is found. With
        // every frame referenced this degenerates to FIFO after one
        // full sweep, so it always terminates.
        while (frames_[hand_].referenced) {
            frames_[hand_].referenced = false;
            hand_ = (hand_ + 1) % frames_.size();
        }
        pfn = hand_;
        hand_ = (hand_ + 1) % frames_.size();
        const Frame &old = frames_[pfn];
        victim.key = old.key;
        victim.dirty = old.dirty;
        evicted = true;
        --resident_;
    }
    Frame &frame = frames_[pfn];
    frame.key = key;
    frame.valid = true;
    frame.referenced = true;
    frame.dirty = is_write;
    ++resident_;
    return pfn;
}

void
FramePool::markAccess(std::uint64_t pfn, bool is_write)
{
    panicIfNot(pfn < frames_.size() && frames_[pfn].valid,
               "os: access to an unmapped frame");
    frames_[pfn].referenced = true;
    if (is_write)
        frames_[pfn].dirty = true;
}

void
FramePool::snapshot(SnapshotIo &io)
{
    io.expect(frames_.size(), "os: frame pool size mismatch");
    for (Frame &frame : frames_) {
        io.u64(frame.key);
        io.b(frame.valid);
        io.b(frame.referenced);
        io.b(frame.dirty);
    }
    io.u64(free_pos_);
    io.check(free_pos_ <= frames_.size(),
             "os: frame pool cursor out of range");
    io.u64(hand_);
    io.check(hand_ < frames_.size(), "os: CLOCK hand out of range");
    io.u64(resident_);
    io.check(resident_ <= frames_.size(),
             "os: resident count out of range");
}

} // namespace asd
