#include "prefetch/dspatch_prefetcher.hpp"

#include <bit>

#include "common/log.hpp"
#include "common/types.hpp"

namespace asd
{

namespace
{

/** @return true when @p v is a power of two in [2, 64]. */
bool
validRegionLines(std::uint32_t v)
{
    return v >= 2 && v <= 64 && std::has_single_bit(v);
}

} // namespace

DspatchMcPrefetcher::DspatchMcPrefetcher(const AsdConfig &shared,
                                         const DspatchConfig &config)
    : BufferedMcPrefetcher(shared), config_(config)
{
    panicIfNot(validRegionLines(config_.region_lines),
               "DspatchMcPrefetcher: region_lines must be a power of "
               "two in [2, 64]");
    panicIfNot(config_.page_buffer_entries > 0,
               "DspatchMcPrefetcher: page_buffer_entries must be > 0");
    regions_.resize(config_.page_buffer_entries);
    signatures_.resize(config_.region_lines);
}

std::uint64_t
DspatchMcPrefetcher::regionMask() const
{
    return config_.region_lines - 1;
}

std::uint32_t
DspatchMcPrefetcher::offsetOf(LineAddr line) const
{
    return narrow<std::uint32_t>(line & regionMask());
}

std::uint64_t
DspatchMcPrefetcher::tagOf(LineAddr line) const
{
    return line / config_.region_lines;
}

std::uint64_t
DspatchMcPrefetcher::anchor(std::uint64_t pattern,
                            std::uint32_t trigger) const
{
    const std::uint32_t n = config_.region_lines;
    const std::uint64_t mask =
        n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
    if (trigger == 0)
        return pattern & mask;
    return ((pattern >> trigger) | (pattern << (n - trigger))) & mask;
}

std::uint64_t
DspatchMcPrefetcher::unanchor(std::uint64_t pattern,
                              std::uint32_t trigger) const
{
    if (trigger == 0)
        return pattern;
    return anchor(pattern, config_.region_lines - trigger);
}

void
DspatchMcPrefetcher::train(Region &region)
{
    if (!region.valid)
        return;
    region.valid = false;
    Signature &sig = signatures_[region.trigger];
    const std::uint64_t observed =
        anchor(region.observed, region.trigger);

    // Score the pattern this region actually prefetched from: every
    // predicted line either was demanded (hit) or was fetched in
    // vain. Only CovP's quality is windowed — AccP is self-cleaning
    // (the AND drops every miss), while an OR-accumulated CovP can
    // only be cleaned by starting over.
    if (region.predicted != 0) {
        const std::uint64_t predicted =
            anchor(region.predicted, region.trigger);
        sig.cov_predicted += static_cast<std::uint32_t>(
            std::popcount(predicted));
        sig.cov_hit += static_cast<std::uint32_t>(
            std::popcount(predicted & observed));
        if (sig.cov_predicted >=
            config_.quality_window * config_.region_lines) {
            if (sig.cov_hit * 4 < sig.cov_predicted)
                sig.cov = 0; // noise: rebuild from scratch
            sig.cov_predicted = 0;
            sig.cov_hit = 0;
        }
    }

    sig.cov = sig.cov == 0 ? observed : (sig.cov | observed);
    sig.acc = sig.trained == 0 ? observed : (sig.acc & observed);
    ++sig.trained;
}

void
DspatchMcPrefetcher::expireRegions()
{
    for (Region &region : regions_) {
        if (region.valid &&
            reads_seen_ - region.last_seen >
                config_.region_idle_reads) {
            train(region);
        }
    }
}

std::vector<LineAddr>
DspatchMcPrefetcher::emit(const Region &region,
                          std::uint64_t pattern) const
{
    // Nearest offsets first, the positive side before the negative,
    // so a tight degree budget spends itself where stream-like
    // workloads need it soonest.
    std::vector<LineAddr> out;
    const LineAddr base = region.tag * config_.region_lines;
    const auto n = static_cast<std::int64_t>(config_.region_lines);
    const auto trigger = static_cast<std::int64_t>(region.trigger);
    for (std::int64_t dist = 1; dist < n; ++dist) {
        for (const std::int64_t sign : {std::int64_t{1},
                                        std::int64_t{-1}}) {
            const std::int64_t off = trigger + sign * dist;
            if (off < 0 || off >= n)
                continue;
            if ((pattern >> off) & 1) {
                out.push_back(base +
                              static_cast<std::uint64_t>(off));
                if (out.size() >= config_.degree)
                    return out;
            }
        }
    }
    return out;
}

std::vector<LineAddr>
DspatchMcPrefetcher::observeRead(LineAddr line, std::uint32_t thread,
                                 Cycle now)
{
    (void)thread; // regions are shared across hardware threads
    ++reads_seen_;
    countReadForEpoch(now);
    expireRegions();

    const std::uint64_t tag = tagOf(line);
    const std::uint32_t offset = offsetOf(line);

    for (Region &region : regions_) {
        if (region.valid && region.tag == tag) {
            region.observed |= std::uint64_t{1} << offset;
            region.last_seen = reads_seen_;
            return {};
        }
    }

    // Region trigger: retire the stalest tracked region, start
    // tracking this one, and predict from its trigger signature.
    Region *victim = nullptr;
    for (Region &region : regions_) {
        if (!region.valid) {
            victim = &region;
            break;
        }
        if (!victim || region.last_seen < victim->last_seen)
            victim = &region;
    }
    train(*victim);
    victim->valid = true;
    victim->tag = tag;
    victim->trigger = offset;
    victim->observed = std::uint64_t{1} << offset;
    victim->predicted = 0;
    victim->last_seen = reads_seen_;

    const Signature &sig = signatures_[offset];
    if (sig.trained == 0)
        return {};
    const bool constrained =
        sched_.policy() <= config_.accp_policy_max;
    const std::uint64_t anchored = constrained ? sig.acc : sig.cov;
    const std::uint64_t pattern =
        unanchor(anchored, offset) &
        ~(std::uint64_t{1} << offset); // trigger already demanded
    if (pattern == 0)
        return {};
    const std::vector<LineAddr> out = emit(*victim, pattern);
    for (const LineAddr target : out)
        victim->predicted |= std::uint64_t{1} << offsetOf(target);
    return out;
}

bool
DspatchMcPrefetcher::lookupBuffer(LineAddr line)
{
    const bool hit = BufferedMcPrefetcher::lookupBuffer(line);
    if (hit) {
        const std::uint64_t tag = tagOf(line);
        for (Region &region : regions_) {
            if (region.valid && region.tag == tag) {
                region.observed |=
                    std::uint64_t{1} << offsetOf(line);
                region.last_seen = reads_seen_;
                break;
            }
        }
    }
    return hit;
}

std::size_t
DspatchMcPrefetcher::liveRegions() const
{
    std::size_t live = 0;
    for (const Region &region : regions_)
        live += region.valid ? 1 : 0;
    return live;
}

std::uint64_t
DspatchMcPrefetcher::covPattern(std::uint32_t trigger) const
{
    panicIfNot(trigger < signatures_.size(),
               "covPattern: trigger out of range");
    return signatures_[trigger].cov;
}

std::uint64_t
DspatchMcPrefetcher::accPattern(std::uint32_t trigger) const
{
    panicIfNot(trigger < signatures_.size(),
               "accPattern: trigger out of range");
    return signatures_[trigger].acc;
}

void
DspatchMcPrefetcher::snapshot(SnapshotIo &io)
{
    BufferedMcPrefetcher::snapshot(io);
    io.u64(reads_seen_);
    io.expect(regions_.size(), "DSPatch region count mismatch");
    for (Region &region : regions_) {
        io.b(region.valid);
        io.u64(region.tag);
        io.u64(region.observed);
        io.u64(region.predicted);
        io.u32(region.trigger);
        io.check(region.trigger < config_.region_lines,
                 "DSPatch trigger out of range");
        io.u64(region.last_seen);
    }
    io.expect(signatures_.size(), "DSPatch signature count mismatch");
    for (Signature &sig : signatures_) {
        io.u64(sig.cov);
        io.u64(sig.acc);
        io.u32(sig.trained);
        io.u32(sig.cov_predicted);
        io.u32(sig.cov_hit);
    }
}

} // namespace asd
