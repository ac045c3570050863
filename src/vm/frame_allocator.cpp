#include "vm/frame_allocator.hpp"

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "common/log.hpp"

namespace asd
{

namespace
{

bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

FrameAllocator::FrameAllocator(const VmConfig &config)
    : config_(config), rng_(config.seed)
{
    panicIfNot(isPowerOfTwo(config_.page_bytes),
               "vm: page_bytes must be a power of two");
    panicIfNot(isPowerOfTwo(config_.huge_bytes),
               "vm: huge_bytes must be a power of two");
    if (config_.huge_bytes < config_.page_bytes)
        fatal("vm: huge_bytes smaller than page_bytes");
    if (config_.frames() == 0)
        fatal("vm: phys_bytes smaller than one page");
}

std::uint64_t
FrameAllocator::nextFreeFrame()
{
    if (used_ >= config_.frames())
        fatal("vm: out of physical frames (" +
              std::to_string(config_.frames()) +
              " frames of " + std::to_string(config_.pageBytes()) +
              " bytes); raise phys_bytes or page size");
    return used_++;
}

std::uint64_t
FrameAllocator::randomFreeFrame()
{
    const std::uint64_t frames = config_.frames();
    if (used_ >= frames)
        fatal("vm: out of physical frames (" +
              std::to_string(frames) + " frames of " +
              std::to_string(config_.pageBytes()) +
              " bytes); raise phys_bytes or page size");
    // Lazy Fisher-Yates: swap a uniformly drawn not-yet-used position
    // into slot `used_` and consume it. O(1) time and space per draw.
    const std::uint64_t i = used_++;
    const std::uint64_t j = i + rng_.nextBelow(frames - i);
    const auto at = [this](std::uint64_t pos) {
        const auto it = shuffle_.find(pos);
        return it == shuffle_.end() ? pos : it->second;
    };
    const std::uint64_t frame = at(j);
    shuffle_[j] = at(i);
    shuffle_.erase(i); // slot i is consumed; reclaim its map entry
    return frame;
}

std::uint64_t
FrameAllocator::allocate(std::uint64_t vpn)
{
    allocated_.inc();
    switch (config_.policy) {
    case FrameAllocPolicy::Identity:
        return vpn % config_.frames();
    case FrameAllocPolicy::Sequential:
        return nextFreeFrame();
    case FrameAllocPolicy::RandomShuffle:
    case FrameAllocPolicy::HugePage:
        return randomFreeFrame();
    }
    panic("unhandled FrameAllocPolicy");
}

void
FrameAllocator::registerStats(StatRegistry &registry,
                              const std::string &prefix) const
{
    registry.add(prefix + ".frames_allocated", allocated_);
}

void
FrameAllocator::snapshot(SnapshotIo &io)
{
    io.rng(rng_);
    io.u64(used_);
    io.u64Map(shuffle_, "duplicate shuffle entry");
    io.counter(allocated_);
}

} // namespace asd
