#include "cache/cache.hpp"

#include <algorithm>
#include <utility>

#include "common/log.hpp"

namespace asd
{

SetAssocCache::SetAssocCache(const CacheConfig &config)
    : config_(config)
{
    panicIfNot(config_.ways > 0, "cache needs at least one way");
    panicIfNot(config_.sets() > 0, "cache smaller than one set");
    ways_.resize(config_.sets() * config_.ways);
}

std::size_t
SetAssocCache::setIndex(LineAddr line) const
{
    // Modulo indexing: the Power5+'s L2 (1536 sets) and L3 (24576
    // sets) are not power-of-two geometries.
    return static_cast<std::size_t>(line % config_.sets());
}

SetAssocCache::Way *
SetAssocCache::find(LineAddr line)
{
    const std::size_t base = setIndex(line) * config_.ways;
    for (std::size_t w = 0; w < config_.ways; ++w) {
        Way &way = ways_[base + w];
        if (way.valid && way.line == line)
            return &way;
    }
    return nullptr;
}

const SetAssocCache::Way *
SetAssocCache::find(LineAddr line) const
{
    return const_cast<SetAssocCache *>(this)->find(line);
}

bool
SetAssocCache::access(LineAddr line, bool mark_dirty)
{
    ++clock_;
    Way *way = find(line);
    if (!way) {
        misses_.inc();
        return false;
    }
    hits_.inc();
    if (way->prefetched) {
        prefetch_hits_.inc();
        way->prefetched = false;
    }
    way->lru = clock_;
    if (mark_dirty)
        way->dirty = true;
    return true;
}

bool
SetAssocCache::probe(LineAddr line) const
{
    return find(line) != nullptr;
}

std::optional<Eviction>
SetAssocCache::insert(LineAddr line, bool dirty, bool prefetch)
{
    ++clock_;
    if (Way *way = find(line)) {
        // Re-insertion of a resident line refreshes it.
        way->lru = clock_;
        way->dirty = way->dirty || dirty;
        return std::nullopt;
    }
    const std::size_t base = setIndex(line) * config_.ways;
    Way *victim = &ways_[base];
    for (std::size_t w = 0; w < config_.ways; ++w) {
        Way &way = ways_[base + w];
        if (!way.valid) {
            victim = &way;
            break;
        }
        if (way.lru < victim->lru)
            victim = &way;
    }
    std::optional<Eviction> evicted;
    if (victim->valid) {
        evicted = Eviction{victim->line, victim->dirty,
                           victim->prefetched};
    }
    victim->valid = true;
    victim->line = line;
    victim->dirty = dirty;
    victim->prefetched = prefetch;
    victim->lru = clock_;
    return evicted;
}

std::optional<Eviction>
SetAssocCache::invalidate(LineAddr line)
{
    Way *way = find(line);
    if (!way)
        return std::nullopt;
    way->valid = false;
    return Eviction{way->line, way->dirty, way->prefetched};
}

std::uint64_t
SetAssocCache::validLines() const
{
    std::uint64_t count = 0;
    for (const Way &way : ways_)
        if (way.valid)
            ++count;
    return count;
}

std::vector<SetAssocCache::ResidentLine>
SetAssocCache::linesByRecency() const
{
    std::vector<std::pair<std::uint64_t, ResidentLine>> stamped;
    for (const Way &way : ways_) {
        if (way.valid) {
            stamped.push_back(
                {way.lru,
                 ResidentLine{way.line, way.dirty, way.prefetched}});
        }
    }
    std::sort(stamped.begin(), stamped.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    std::vector<ResidentLine> lines;
    lines.reserve(stamped.size());
    for (const auto &entry : stamped)
        lines.push_back(entry.second);
    return lines;
}

void
SetAssocCache::registerStats(StatRegistry &registry,
                             const std::string &prefix) const
{
    registry.add(prefix + ".hits", hits_);
    registry.add(prefix + ".misses", misses_);
    registry.add(prefix + ".prefetch_hits", prefetch_hits_);
}

void
SetAssocCache::snapshot(SnapshotIo &io)
{
    io.u64(clock_);
    io.expect(ways_.size(), "cache geometry mismatch");
    for (Way &way : ways_) {
        io.u64(way.line);
        io.u64(way.lru);
        io.b(way.valid);
        io.b(way.dirty);
        io.b(way.prefetched);
    }
    io.counter(hits_);
    io.counter(misses_);
    io.counter(prefetch_hits_);
}

} // namespace asd
