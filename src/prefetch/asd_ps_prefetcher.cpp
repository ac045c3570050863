#include "prefetch/asd_ps_prefetcher.hpp"

#include "common/log.hpp"

namespace asd
{

AsdPsPrefetcher::AsdPsPrefetcher(const AsdPsConfig &config)
    : config_(config),
      filter_(config.filter_slots, config.lifetime_init,
              config.lifetime_extend),
      positive_(config.lht_entries),
      negative_(config.lht_entries)
{
    if (config_.degree < 1 || config_.degree > 2)
        fatal("AsdPsPrefetcher: degree must be 1 or 2");
    if (config_.epoch_accesses == 0)
        fatal("AsdPsPrefetcher: epoch must be positive");
}

LikelihoodTablePair &
AsdPsPrefetcher::tables(StreamDir dir)
{
    return dir == StreamDir::Positive ? positive_ : negative_;
}

void
AsdPsPrefetcher::streamDied(const DeadStream &dead)
{
    tables(dead.dir).streamDied(dead.length);
}

std::vector<PsPrefetchReq>
AsdPsPrefetcher::observe(LineAddr line, bool was_l1_miss)
{
    (void)was_l1_miss; // ASD learns from the full access stream
    ++accesses_;
    for (const DeadStream &dead : filter_.expireLifetimes(accesses_))
        streamDied(dead);

    std::vector<PsPrefetchReq> out;
    const StreamObservation obs = filter_.observe(line, accesses_);
    switch (obs.kind) {
      case StreamObservation::Kind::Overflow:
        overflow_.inc();
        streamDied({1, StreamDir::Positive});
        break;
      case StreamObservation::Kind::SameLine:
        break;
      case StreamObservation::Kind::Allocated:
      case StreamObservation::Kind::Extended: {
        const LikelihoodTable &lht = tables(obs.dir).curr();
        const auto k = static_cast<std::size_t>(obs.length);
        for (std::size_t d = 1;
             d <= config_.degree && k < config_.lht_entries; ++d) {
            if (!lht.shouldPrefetch(k, d)) {
                if (d == 1)
                    suppressed_.inc();
                break;
            }
            const std::int64_t target =
                static_cast<std::int64_t>(line) +
                dirStep(obs.dir) * static_cast<std::int64_t>(d);
            if (target < 0)
                break;
            out.push_back(
                {static_cast<LineAddr>(target), d == 1});
            requests_.inc();
        }
        break;
      }
    }

    if (++epoch_accesses_seen_ >= config_.epoch_accesses) {
        epoch_accesses_seen_ = 0;
        std::vector<std::uint64_t> leftover_pos;
        std::vector<std::uint64_t> leftover_neg;
        for (const DeadStream &dead : filter_.flushAll()) {
            (dead.dir == StreamDir::Positive ? leftover_pos
                                             : leftover_neg)
                .push_back(dead.length);
        }
        positive_.epochEnd(leftover_pos);
        negative_.epochEnd(leftover_neg);
        ++epochs_;
    }
    return out;
}

const LikelihoodTable &
AsdPsPrefetcher::lhtCurr(StreamDir dir) const
{
    return (dir == StreamDir::Positive ? positive_ : negative_).curr();
}

void
AsdPsPrefetcher::registerStats(StatRegistry &registry,
                               const std::string &prefix) const
{
    registry.add(prefix + ".requests", requests_);
    registry.add(prefix + ".suppressed", suppressed_);
    registry.add(prefix + ".overflow", overflow_);
}

void
AsdPsPrefetcher::snapshot(SnapshotIo &io)
{
    io.component(filter_);
    io.component(positive_);
    io.component(negative_);
    io.u64(accesses_);
    io.u32(epoch_accesses_seen_);
    io.u64(epochs_);
    io.counter(requests_);
    io.counter(suppressed_);
    io.counter(overflow_);
}

} // namespace asd
