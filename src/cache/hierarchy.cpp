#include "cache/hierarchy.hpp"

namespace asd
{

CacheHierarchy::CacheHierarchy(const HierarchyConfig &config)
    : config_(config),
      l1_(config.l1),
      l2_(config.l2),
      l3_(config.l3)
{
}

void
CacheHierarchy::insertL3(LineAddr line, bool dirty, bool prefetch)
{
    // Victim L3 (Power5-style): holds lines cast out of L2; evicting
    // an L3 line never back-invalidates the upper levels, it just
    // writes dirty data to memory.
    if (const auto victim = l3_.insert(line, dirty, prefetch)) {
        if (victim->dirty) {
            writebacks_.push_back(victim->line);
            writebacks_generated_.inc();
        }
    }
}

void
CacheHierarchy::insertL2(LineAddr line, bool dirty, bool prefetch)
{
    if (const auto victim = l2_.insert(line, dirty, prefetch)) {
        // L1 stays a subset of L2 (write-through, clean lines only).
        l1_.invalidate(victim->line);
        insertL3(victim->line, victim->dirty, victim->was_prefetch);
    }
}

void
CacheHierarchy::insertL1(LineAddr line, bool prefetch)
{
    l1_.insert(line, false, prefetch);
}

/**
 * Move a line that hit in the victim L3 back up into L2, removing the
 * L3 copy (exclusive promotion) and carrying its dirty bit.
 */
AccessResult
CacheHierarchy::access(LineAddr line, bool is_store)
{
    AccessResult result;
    if (is_store) {
        // Write-through L1: the store updates L1 if present and always
        // writes into L2. An L2 + L3 miss raises an RFO memory read.
        l1_.access(line, false);
        if (l2_.access(line, true)) {
            result.level = HitLevel::L2;
            result.latency = config_.lat_l2;
            return result;
        }
        if (l3_.access(line, false)) {
            const auto promoted = l3_.invalidate(line);
            insertL2(line, true, false);
            (void)promoted;
            result.level = HitLevel::L3;
            result.latency = config_.lat_l3;
            return result;
        }
        result.level = HitLevel::Memory;
        result.needs_memory = true;
        return result;
    }

    if (l1_.access(line, false)) {
        result.level = HitLevel::L1;
        result.latency = config_.lat_l1;
        return result;
    }
    if (l2_.access(line, false)) {
        insertL1(line, false);
        result.level = HitLevel::L2;
        result.latency = config_.lat_l2;
        return result;
    }
    if (l3_.access(line, false)) {
        const auto promoted = l3_.invalidate(line);
        insertL2(line, promoted && promoted->dirty, false);
        insertL1(line, false);
        result.level = HitLevel::L3;
        result.latency = config_.lat_l3;
        return result;
    }
    result.level = HitLevel::Memory;
    result.needs_memory = true;
    return result;
}

void
CacheHierarchy::fill(LineAddr line, bool dirty)
{
    insertL2(line, dirty, false);
    insertL1(line, false);
}

void
CacheHierarchy::fillPrefetchL1(LineAddr line)
{
    insertL2(line, false, true);
    insertL1(line, true);
}

void
CacheHierarchy::fillPrefetchL2(LineAddr line)
{
    insertL2(line, false, true);
}

const std::vector<LineAddr> &
CacheHierarchy::drainWritebacks()
{
    drained_.clear();
    drained_.swap(writebacks_);
    return drained_;
}

bool
CacheHierarchy::probe(HitLevel level, LineAddr line) const
{
    switch (level) {
      case HitLevel::L1:
        return l1_.probe(line);
      case HitLevel::L2:
        return l2_.probe(line);
      case HitLevel::L3:
        return l3_.probe(line);
      case HitLevel::Memory:
        return false;
    }
    return false;
}

void
CacheHierarchy::registerStats(StatRegistry &registry,
                              const std::string &prefix) const
{
    l1_.registerStats(registry, prefix + ".l1");
    l2_.registerStats(registry, prefix + ".l2");
    l3_.registerStats(registry, prefix + ".l3");
    registry.add(prefix + ".writebacks", writebacks_generated_);
}

void
CacheHierarchy::snapshot(SnapshotIo &io)
{
    io.component(l1_);
    io.component(l2_);
    io.component(l3_);
    io.vecU64(writebacks_);
    io.counter(writebacks_generated_);
}

} // namespace asd
