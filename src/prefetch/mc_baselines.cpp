#include "prefetch/mc_baselines.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace asd
{

std::vector<LineAddr>
NextLineMcPrefetcher::observeRead(LineAddr line, std::uint32_t thread,
                                  Cycle now)
{
    (void)thread;
    countReadForEpoch(now);
    return {line + 1};
}

P5StyleMcPrefetcher::P5StyleMcPrefetcher(const AsdConfig &config)
    : BufferedMcPrefetcher(config)
{
    filters_.reserve(config_.threads);
    for (std::uint32_t t = 0; t < config_.threads; ++t)
        filters_.emplace_back(config_.filter_slots,
                              config_.lifetime_init,
                              config_.lifetime_extend);
}

std::vector<LineAddr>
P5StyleMcPrefetcher::observeRead(LineAddr line, std::uint32_t thread,
                                 Cycle now)
{
    panicIfNot(thread < filters_.size(),
               "P5StyleMcPrefetcher: bad thread index");
    std::vector<LineAddr> out;
    const StreamObservation obs = filters_[thread].observe(line, now);
    // Fixed policy: once a stream is confirmed (two sequential reads)
    // always fetch the next line; no histogram consultation.
    if (obs.kind == StreamObservation::Kind::Extended &&
        obs.length >= 2) {
        const std::int64_t target =
            static_cast<std::int64_t>(line) + dirStep(obs.dir);
        if (target >= 0)
            out.push_back(static_cast<LineAddr>(target));
    }
    countReadForEpoch(now);
    return out;
}

void
P5StyleMcPrefetcher::tick(Cycle now)
{
    for (auto &filter : filters_)
        filter.expireLifetimes(now);
}

Cycle
P5StyleMcPrefetcher::nextTickDue(Cycle) const
{
    Cycle due = kNoCycle;
    for (const auto &filter : filters_)
        due = std::min(due, filter.nextExpiry());
    return due;
}

void
P5StyleMcPrefetcher::snapshot(SnapshotIo &io)
{
    BufferedMcPrefetcher::snapshot(io);
    io.expect(filters_.size(), "P5 filter count mismatch");
    for (StreamFilter &filter : filters_)
        io.component(filter);
}

} // namespace asd
