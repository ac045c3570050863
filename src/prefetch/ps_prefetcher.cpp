#include "prefetch/ps_prefetcher.hpp"

#include "common/log.hpp"

namespace asd
{

PsPrefetcher::PsPrefetcher(const PsConfig &config)
    : config_(config),
      table_(config.detect_entries)
{
    panicIfNot(config_.detect_entries > 0,
               "PsPrefetcher: detection table must be nonempty");
    panicIfNot(config_.l2_ahead >= config_.l1_ahead,
               "PsPrefetcher: L2 lookahead must cover L1 lookahead");
}

std::size_t
PsPrefetcher::activeStreams() const
{
    std::size_t count = 0;
    for (const auto &entry : table_)
        if (entry.valid && entry.active)
            ++count;
    return count;
}

void
PsPrefetcher::emitAhead(Entry &entry, std::vector<PsPrefetchReq> &out)
{
    const std::int64_t step = dirStep(entry.dir);
    // Depth ramps with confidence, as in the Power5: a freshly
    // confirmed stream fetches one line; established streams keep the
    // full L1+L2 lookahead populated.
    const std::uint32_t max_ahead =
        entry.length <= 2 ? 1 : config_.l2_ahead;
    for (std::uint32_t ahead = 1; ahead <= max_ahead; ++ahead) {
        const std::int64_t target =
            static_cast<std::int64_t>(entry.last) +
            step * static_cast<std::int64_t>(ahead);
        if (target < 0)
            break;
        const auto line = static_cast<LineAddr>(target);
        // Skip lines the stream has already requested.
        const bool beyond =
            entry.dir == StreamDir::Positive
                ? line > entry.furthest
                : line < entry.furthest;
        if (!beyond)
            continue;
        out.push_back({line, ahead <= config_.l1_ahead});
        prefetches_requested_.inc();
        entry.furthest = line;
    }
}

std::vector<PsPrefetchReq>
PsPrefetcher::observe(LineAddr line, bool was_l1_miss)
{
    ++clock_;
    std::vector<PsPrefetchReq> out;

    for (auto &entry : table_) {
        if (!entry.valid)
            continue;
        const auto next = static_cast<LineAddr>(
            static_cast<std::int64_t>(entry.last) + dirStep(entry.dir));
        const bool extends = line == next;
        const bool flips = entry.length == 1 && entry.last > 0 &&
                           line == entry.last - 1;
        if (!extends && !flips) {
            if (line == entry.last)
                return out; // repeat access: nothing to learn
            continue;
        }

        if (entry.length == 1) {
            // Confirmation requires two consecutive *misses*.
            if (!was_l1_miss)
                return out;
            if (flips)
                entry.dir = StreamDir::Negative;
            entry.last = line;
            entry.length = 2;
            entry.lru = clock_;
            if (activeStreams() < config_.max_active_streams) {
                entry.active = true;
                entry.furthest = line;
                streams_confirmed_.inc();
                emitAhead(entry, out);
            }
            return out;
        }

        entry.last = line;
        ++entry.length;
        entry.lru = clock_;
        if (!entry.active &&
            activeStreams() < config_.max_active_streams) {
            entry.active = true;
            entry.furthest = line;
            streams_confirmed_.inc();
        }
        if (entry.active)
            emitAhead(entry, out);
        return out;
    }

    if (!was_l1_miss)
        return out;

    // Allocate the LRU detection entry for a fresh potential stream.
    Entry *victim = &table_[0];
    for (auto &entry : table_) {
        if (!entry.valid) {
            victim = &entry;
            break;
        }
        if (entry.lru < victim->lru)
            victim = &entry;
    }
    victim->valid = true;
    victim->active = false;
    victim->last = line;
    victim->furthest = line;
    victim->length = 1;
    victim->dir = StreamDir::Positive;
    victim->lru = clock_;
    return out;
}

void
PsPrefetcher::registerStats(StatRegistry &registry,
                            const std::string &prefix) const
{
    registry.add(prefix + ".streams_confirmed", streams_confirmed_);
    registry.add(prefix + ".prefetches_requested",
                 prefetches_requested_);
}

void
PsPrefetcher::snapshot(SnapshotIo &io)
{
    io.expect(table_.size(), "PS detect-table size mismatch");
    for (Entry &entry : table_) {
        io.u64(entry.last);
        io.u64(entry.furthest);
        io.u64(entry.length);
        io.u64(entry.lru);
        io.enumeration(entry.dir, StreamDir::Negative,
                       "stream direction out of range");
        io.b(entry.valid);
        io.b(entry.active);
    }
    io.u64(clock_);
    io.counter(streams_confirmed_);
    io.counter(prefetches_requested_);
}

} // namespace asd
