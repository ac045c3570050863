#include "core/prefetch_buffer.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace asd
{

namespace
{

CacheConfig
bufferGeometry(std::uint32_t lines, std::uint32_t ways)
{
    CacheConfig config;
    config.line_bytes = 128;
    config.ways = std::min(ways, lines);
    config.size_bytes =
        static_cast<std::uint64_t>(lines) * config.line_bytes;
    return config;
}

} // namespace

PrefetchBuffer::PrefetchBuffer(std::uint32_t lines, std::uint32_t ways)
    : cache_(bufferGeometry(lines, ways))
{
}

bool
PrefetchBuffer::contains(LineAddr line) const
{
    return cache_.probe(line);
}

bool
PrefetchBuffer::consume(LineAddr line)
{
    if (!cache_.invalidate(line))
        return false;
    consumed_.inc();
    return true;
}

void
PrefetchBuffer::insert(LineAddr line)
{
    const auto victim = cache_.insert(line, false, true);
    inserted_.inc();
    if (victim && victim->was_prefetch)
        evicted_unused_.inc();
    if (checksEnabled()) {
        checkThat(occupancy() <= capacityLines(),
                  "Prefetch Buffer occupancy above capacity");
    }
}

std::uint64_t
PrefetchBuffer::occupancy() const
{
    return cache_.validLines();
}

void
PrefetchBuffer::invalidateOnWrite(LineAddr line)
{
    if (cache_.invalidate(line))
        write_invalidations_.inc();
}

void
PrefetchBuffer::registerStats(StatRegistry &registry,
                              const std::string &prefix) const
{
    registry.add(prefix + ".inserted", inserted_);
    registry.add(prefix + ".consumed", consumed_);
    registry.add(prefix + ".evicted_unused", evicted_unused_);
    registry.add(prefix + ".write_invalidations", write_invalidations_);
}

void
PrefetchBuffer::resize(std::uint32_t lines, std::uint32_t ways)
{
    const std::vector<SetAssocCache::ResidentLine> resident =
        cache_.linesByRecency();
    SetAssocCache rebuilt(bufferGeometry(lines, ways));
    for (const SetAssocCache::ResidentLine &entry : resident) {
        const auto victim =
            rebuilt.insert(entry.line, entry.dirty, entry.prefetched);
        if (victim && victim->was_prefetch)
            evicted_unused_.inc();
    }
    cache_ = std::move(rebuilt);
    if (checksEnabled()) {
        checkThat(occupancy() <= capacityLines(),
                  "Prefetch Buffer occupancy above capacity");
    }
}

std::uint32_t
PrefetchBuffer::capacityLines() const
{
    return narrow<std::uint32_t>(cache_.config().size_bytes /
                                 cache_.config().line_bytes);
}

void
PrefetchBuffer::snapshot(SnapshotIo &io)
{
    io.component(cache_);
    io.counter(inserted_);
    io.counter(consumed_);
    io.counter(evicted_unused_);
    io.counter(write_invalidations_);
}

} // namespace asd
