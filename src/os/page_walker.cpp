#include "os/page_walker.hpp"

#include "common/log.hpp"

namespace asd
{

namespace
{

/** splitmix64 finalizer: deterministic, well-mixed bucket hash. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
nextPowerOfTwo(std::uint64_t v)
{
    std::uint64_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

void
PageWalker::registerStats(StatRegistry &registry,
                          const std::string &prefix) const
{
    registry.add(prefix + ".pages_mapped", pages_mapped_);
}

void
PageWalker::snapshot(SnapshotIo &io)
{
    io.counter(pages_mapped_);
}

RadixWalker::RadixWalker(Cycles walk_cycles)
    : walk_cycles_(walk_cycles)
{}

bool
RadixWalker::lookup(std::uint64_t key, std::uint64_t &pfn,
                    Cycles &walk_cycles)
{
    walk_cycles = walk_cycles_;
    const auto it = map_.find(key);
    if (it == map_.end())
        return false;
    pfn = it->second;
    return true;
}

void
RadixWalker::map(std::uint64_t key, std::uint64_t pfn)
{
    panicIfNot(map_.emplace(key, pfn).second,
               "os: radix walker double map");
    pages_mapped_.inc();
}

void
RadixWalker::unmap(std::uint64_t key)
{
    panicIfNot(map_.erase(key) == 1, "os: radix walker unmap miss");
}

void
RadixWalker::snapshot(SnapshotIo &io)
{
    io.u64Map(map_, "os: duplicate radix mapping");
    PageWalker::snapshot(io);
}

HashedWalker::HashedWalker(std::uint64_t buckets, Cycles probe_cycles)
    : probe_cycles_(probe_cycles)
{
    if (buckets == 0)
        fatal("os: hashed walker needs at least one bucket");
    buckets_.resize(nextPowerOfTwo(buckets));
}

std::size_t
HashedWalker::bucketOf(std::uint64_t key) const
{
    return static_cast<std::size_t>(mix64(key) &
                                    (buckets_.size() - 1));
}

bool
HashedWalker::lookup(std::uint64_t key, std::uint64_t &pfn,
                     Cycles &walk_cycles)
{
    const std::vector<Entry> &chain = buckets_[bucketOf(key)];
    for (std::size_t i = 0; i < chain.size(); ++i) {
        if (chain[i].key == key) {
            walk_cycles = probe_cycles_ *
                          static_cast<Cycles>(i + 1);
            pfn = chain[i].pfn;
            return true;
        }
    }
    // A miss probes the whole chain (plus the anchor) before the
    // fault is known.
    walk_cycles = probe_cycles_ *
                  static_cast<Cycles>(chain.size() + 1);
    return false;
}

void
HashedWalker::map(std::uint64_t key, std::uint64_t pfn)
{
    std::vector<Entry> &chain = buckets_[bucketOf(key)];
    for (const Entry &entry : chain)
        panicIfNot(entry.key != key, "os: hashed walker double map");
    chain.push_back(Entry{key, pfn});
    ++mapped_;
    pages_mapped_.inc();
}

void
HashedWalker::unmap(std::uint64_t key)
{
    std::vector<Entry> &chain = buckets_[bucketOf(key)];
    for (std::size_t i = 0; i < chain.size(); ++i) {
        if (chain[i].key == key) {
            chain.erase(chain.begin() +
                        static_cast<std::ptrdiff_t>(i));
            --mapped_;
            return;
        }
    }
    panic("os: hashed walker unmap miss");
}

void
HashedWalker::snapshot(SnapshotIo &io)
{
    io.expect(buckets_.size(), "os: hashed walker bucket count mismatch");
    for (std::vector<Entry> &chain : buckets_) {
        const std::uint64_t len = io.count(chain.size(), 16); // (key, pfn)
        if (io.loading())
            chain.resize(len);
        for (Entry &entry : chain) {
            io.u64(entry.key);
            io.u64(entry.pfn);
        }
    }
    io.u64(mapped_);
    PageWalker::snapshot(io);
}

std::unique_ptr<PageWalker>
makePageWalker(const VmConfig &vm, Cycles hashed_probe_cycles,
               std::uint64_t frames)
{
    switch (vm.walker) {
    case PageWalkerKind::Radix:
        return std::make_unique<RadixWalker>(vm.tlb.walk_cycles);
    case PageWalkerKind::Hashed:
        // Inverted-table sizing: one chain anchor per frame.
        return std::make_unique<HashedWalker>(frames,
                                              hashed_probe_cycles);
    }
    panic("unhandled PageWalkerKind");
}

} // namespace asd
