#include "prefetch/stride_prefetcher.hpp"

#include <cstdlib>

#include "common/log.hpp"

namespace asd
{

StrideMcPrefetcher::StrideMcPrefetcher(const AsdConfig &shared,
                                       const StrideConfig &config)
    : BufferedMcPrefetcher(shared),
      config_(config),
      slots_(config.slots)
{
    if (config_.slots == 0)
        fatal("StrideMcPrefetcher: slots must be >= 1");
    if (config_.max_stride < 1)
        fatal("StrideMcPrefetcher: max_stride must be >= 1");
    if (config_.degree == 0)
        fatal("StrideMcPrefetcher: degree must be >= 1");
}

std::size_t
StrideMcPrefetcher::liveSlots() const
{
    std::size_t count = 0;
    for (const auto &slot : slots_)
        count += slot.valid;
    return count;
}

std::vector<LineAddr>
StrideMcPrefetcher::observeRead(LineAddr line, std::uint32_t thread,
                                Cycle now)
{
    (void)thread;
    countReadForEpoch(now);
    ++reads_seen_;

    std::vector<LineAddr> out;

    // Pass 1: a slot whose learned stride predicts this line exactly.
    for (auto &slot : slots_) {
        if (!slot.valid || slot.stride == 0)
            continue;
        if (static_cast<std::int64_t>(line) ==
            static_cast<std::int64_t>(slot.last) + slot.stride) {
            slot.last = line;
            slot.last_seen = reads_seen_;
            if (slot.confidence < config_.confirm)
                ++slot.confidence;
            if (slot.confidence >= config_.confirm) {
                for (std::uint32_t d = 1; d <= config_.degree; ++d) {
                    const std::int64_t target =
                        static_cast<std::int64_t>(line) +
                        slot.stride * static_cast<std::int64_t>(d);
                    if (target < 0)
                        break;
                    out.push_back(static_cast<LineAddr>(target));
                }
            }
            return out;
        }
    }

    // Pass 2: learn a stride from a nearby previous access.
    for (auto &slot : slots_) {
        if (!slot.valid)
            continue;
        const std::int64_t delta =
            static_cast<std::int64_t>(line) -
            static_cast<std::int64_t>(slot.last);
        if (delta != 0 && std::llabs(delta) <= config_.max_stride) {
            slot.stride = delta;
            slot.last = line;
            slot.confidence = 1;
            slot.last_seen = reads_seen_;
            return out;
        }
    }

    // Pass 3: allocate — a free slot, or the stalest one past its
    // lifetime.
    Slot *victim = nullptr;
    for (auto &slot : slots_) {
        if (!slot.valid) {
            victim = &slot;
            break;
        }
        if (reads_seen_ - slot.last_seen > config_.lifetime_reads &&
            (!victim || slot.last_seen < victim->last_seen)) {
            victim = &slot;
        }
    }
    if (victim) {
        victim->valid = true;
        victim->last = line;
        victim->stride = 0;
        victim->confidence = 0;
        victim->last_seen = reads_seen_;
    }
    return out;
}

void
StrideMcPrefetcher::snapshot(SnapshotIo &io)
{
    BufferedMcPrefetcher::snapshot(io);
    io.expect(slots_.size(), "stride slot count mismatch");
    for (Slot &slot : slots_) {
        io.u64(slot.last);
        io.i64(slot.stride);
        io.u32(slot.confidence);
        io.u64(slot.last_seen);
        io.b(slot.valid);
    }
    io.u64(reads_seen_);
}

} // namespace asd
