#include "core/stream_filter.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace asd
{

namespace
{

/**
 * Extend a slot's lifetime: the hardware lifetime counter is
 * incremented by the extension value but saturates at its width
 * (init + extend), so a long stream cannot bank unbounded lifetime
 * and zombify its slot after the stream really ends.
 */
Cycle
extendLifetime(Cycle expires_at, Cycle now, Cycles init, Cycles extend)
{
    return std::min(expires_at + extend, now + init + extend);
}

} // namespace

StreamFilter::StreamFilter(std::uint32_t slots, Cycles lifetime_init,
                           Cycles lifetime_extend)
    : slots_(slots),
      lifetime_init_(lifetime_init),
      lifetime_extend_(lifetime_extend)
{
    if (slots_ > 0)
        table_.resize(slots_);
}

void
StreamFilter::mergeConverged(const Slot &winner,
                             StreamObservation &result)
{
    for (auto &slot : table_) {
        if (!slot.valid || &slot == &winner ||
            slot.last != winner.last) {
            continue;
        }
        // Two live streams now point at the same line; the one that
        // did not produce this observation is stale — retire it as a
        // dead stream rather than letting two slots shadow each other.
        result.converged = true;
        result.converged_stream = {slot.length, slot.dir};
        slot.valid = false;
    }
    if (checksEnabled()) {
        for (std::size_t a = 0; a < table_.size(); ++a)
            for (std::size_t b = a + 1; b < table_.size(); ++b)
                checkThat(!table_[a].valid || !table_[b].valid ||
                              table_[a].last != table_[b].last,
                          "Stream Filter slot uniqueness violated");
    }
}

StreamObservation
StreamFilter::observe(LineAddr line, Cycle now)
{
    StreamObservation result;

    // Match priority across *all* slots, most informative rule first
    // (extension > direction-flip > same-line), so table order cannot
    // decide between slots matching different rules.

    // Rule 1: extension of an existing stream.
    for (auto &slot : table_) {
        if (!slot.valid)
            continue;
        const auto next = static_cast<LineAddr>(
            static_cast<std::int64_t>(slot.last) + dirStep(slot.dir));
        if (line == next) {
            slot.last = line;
            ++slot.length;
            slot.expires_at = extendLifetime(
                slot.expires_at, now, lifetime_init_, lifetime_extend_);
            result.kind = StreamObservation::Kind::Extended;
            result.length = slot.length;
            result.dir = slot.dir;
            mergeConverged(slot, result);
            return result;
        }
    }

    // Rule 2: a length-1 stream has no committed direction yet; a
    // read one line below flips it negative (paper section 3.3).
    for (auto &slot : table_) {
        if (!slot.valid || slot.length != 1)
            continue;
        if (slot.last > 0 && line == slot.last - 1) {
            slot.dir = StreamDir::Negative;
            slot.last = line;
            slot.length = 2;
            slot.expires_at = extendLifetime(
                slot.expires_at, now, lifetime_init_, lifetime_extend_);
            result.kind = StreamObservation::Kind::Extended;
            result.length = slot.length;
            result.dir = slot.dir;
            mergeConverged(slot, result);
            return result;
        }
    }

    // Rule 3: repeat of a stream's last line (lifetime refresh only).
    for (auto &slot : table_) {
        if (!slot.valid)
            continue;
        if (line == slot.last) {
            slot.expires_at = now + lifetime_init_;
            result.kind = StreamObservation::Kind::SameLine;
            result.length = slot.length;
            result.dir = slot.dir;
            return result;
        }
    }

    // Pass 2: allocate a vacant slot.
    for (auto &slot : table_) {
        if (slot.valid)
            continue;
        slot.valid = true;
        slot.last = line;
        slot.length = 1;
        slot.dir = StreamDir::Positive;
        slot.expires_at = now + lifetime_init_;
        result.kind = StreamObservation::Kind::Allocated;
        return result;
    }

    if (slots_ == 0) {
        // Unbounded oracle mode: grow.
        Slot slot;
        slot.valid = true;
        slot.last = line;
        slot.length = 1;
        slot.expires_at = now + lifetime_init_;
        table_.push_back(slot);
        result.kind = StreamObservation::Kind::Allocated;
        return result;
    }

    result.kind = StreamObservation::Kind::Overflow;
    return result;
}

std::vector<DeadStream>
StreamFilter::expireLifetimes(Cycle now)
{
    std::vector<DeadStream> dead;
    for (auto &slot : table_) {
        if (slot.valid && slot.expires_at <= now) {
            dead.push_back({slot.length, slot.dir});
            slot.valid = false;
        }
    }
    return dead;
}

Cycle
StreamFilter::nextExpiry() const
{
    Cycle soonest = kNoCycle;
    for (const auto &slot : table_)
        if (slot.valid)
            soonest = std::min(soonest, slot.expires_at);
    return soonest;
}

std::vector<DeadStream>
StreamFilter::flushAll()
{
    std::vector<DeadStream> dead;
    for (auto &slot : table_) {
        if (slot.valid) {
            dead.push_back({slot.length, slot.dir});
            slot.valid = false;
        }
    }
    if (slots_ == 0)
        table_.clear();
    return dead;
}

std::vector<DeadStream>
StreamFilter::resize(std::uint32_t slots)
{
    std::vector<DeadStream> dropped;
    std::vector<Slot> live;
    for (const Slot &slot : table_)
        if (slot.valid)
            live.push_back(slot);
    // Most remaining lifetime first; stable so equal lifetimes keep
    // their table order.
    std::stable_sort(live.begin(), live.end(),
                     [](const Slot &a, const Slot &b) {
                         return a.expires_at > b.expires_at;
                     });
    if (slots > 0 && live.size() > slots) {
        for (std::size_t i = slots; i < live.size(); ++i)
            dropped.push_back({live[i].length, live[i].dir});
        live.resize(slots);
    }
    slots_ = slots;
    table_ = std::move(live);
    if (slots_ > 0)
        table_.resize(slots_);
    return dropped;
}

std::size_t
StreamFilter::liveStreams() const
{
    std::size_t count = 0;
    for (const auto &slot : table_)
        if (slot.valid)
            ++count;
    return count;
}

void
StreamFilter::snapshot(SnapshotIo &io)
{
    // A slot is three u64s, its direction and its valid flag.
    const std::uint64_t count = io.count(table_.size(), 3 * 8 + 2);
    io.check(slots_ == 0 || count == slots_,
             "stream filter slot count mismatch");
    if (io.loading())
        table_.assign(count, Slot{});
    for (Slot &slot : table_) {
        io.u64(slot.last);
        io.u64(slot.length);
        io.u64(slot.expires_at);
        io.enumeration(slot.dir, StreamDir::Negative,
                       "stream direction out of range");
        io.b(slot.valid);
    }
}

} // namespace asd
