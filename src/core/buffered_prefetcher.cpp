#include "core/buffered_prefetcher.hpp"

#include "common/log.hpp"

namespace asd
{

BufferedMcPrefetcher::BufferedMcPrefetcher(const AsdConfig &config)
    : config_(config),
      buffer_(config.buffer_lines, config.buffer_ways),
      sched_(config.sched)
{
    if (config_.epoch_reads == 0)
        fatal("BufferedMcPrefetcher: epoch length must be positive");
}

void
BufferedMcPrefetcher::countReadForEpoch(Cycle now)
{
    if (++epoch_reads_seen_ < config_.epoch_reads)
        return;
    epoch_reads_seen_ = 0;
    sched_.epochEnd();
    ++epochs_done_;
    onEpochEnd(now);
    if (epoch_end_hook_)
        epoch_end_hook_(now);
}

void
BufferedMcPrefetcher::registerStats(StatRegistry &registry) const
{
    buffer_.registerStats(registry, "ms.buffer");
    sched_.registerStats(registry, "ms.sched");
}

void
BufferedMcPrefetcher::snapshot(SnapshotIo &io)
{
    io.component(buffer_);
    io.component(sched_);
    io.u32(epoch_reads_seen_);
    io.u64(epochs_done_);
}

} // namespace asd
