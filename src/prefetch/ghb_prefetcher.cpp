#include "prefetch/ghb_prefetcher.hpp"

#include "common/log.hpp"

namespace asd
{

GhbMcPrefetcher::GhbMcPrefetcher(const AsdConfig &shared,
                                 const GhbConfig &config)
    : BufferedMcPrefetcher(shared),
      config_(config),
      ghb_(config.ghb_entries),
      index_(config.index_entries, kNoLink),
      index_tag_(config.index_entries, 0),
      index_tag_d1_(config.index_entries, 0),
      index_tag_d0_(config.index_entries, 0)
{
    if (config_.ghb_entries == 0 || config_.index_entries == 0)
        fatal("GhbMcPrefetcher: tables must be nonempty");
    if (config_.degree == 0)
        fatal("GhbMcPrefetcher: degree must be >= 1");
}

std::size_t
GhbMcPrefetcher::indexOf(LineAddr line) const
{
    // Cheap mix before the modulo so strided lines spread.
    const std::uint64_t hash =
        (line ^ (line >> 13)) * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(hash % index_.size());
}

std::size_t
GhbMcPrefetcher::indexOfDeltas(std::int64_t d1, std::int64_t d0) const
{
    const std::uint64_t a =
        static_cast<std::uint64_t>(d1) * 0x9e3779b97f4a7c15ULL;
    const std::uint64_t b =
        static_cast<std::uint64_t>(d0) * 0xc2b2ae3d27d4eb4fULL;
    const std::uint64_t hash = (a ^ b) ^ ((a ^ b) >> 29);
    return static_cast<std::size_t>(hash % index_.size());
}

bool
GhbMcPrefetcher::inWindow(std::uint64_t seq) const
{
    return seq != kNoLink && seq < next_seq_ &&
           next_seq_ - seq <= ghb_.size();
}

std::size_t
GhbMcPrefetcher::historySize() const
{
    std::size_t count = 0;
    for (const auto &entry : ghb_)
        count += entry.valid;
    return count;
}

GhbMcPrefetcher::GhbEntry &
GhbMcPrefetcher::append(LineAddr line, std::int64_t delta,
                        std::uint64_t prev_seq)
{
    GhbEntry &slot = ghb_[next_seq_ % ghb_.size()];
    slot.line = line;
    slot.delta = delta;
    slot.prev = prev_seq;
    slot.valid = true;
    return slot;
}

std::vector<LineAddr>
GhbMcPrefetcher::correlateAddress(LineAddr line)
{
    std::vector<LineAddr> out;
    const std::size_t idx = indexOf(line);
    const std::uint64_t prev_seq =
        index_tag_[idx] == line ? index_[idx] : kNoLink;

    // The lines that followed the previous occurrence are the
    // prediction for what follows this one.
    if (inWindow(prev_seq)) {
        for (std::uint32_t d = 1; d <= config_.degree; ++d) {
            const std::uint64_t follow = prev_seq + d;
            if (!inWindow(follow) && follow != next_seq_)
                break;
            if (follow >= next_seq_)
                break;
            const GhbEntry &entry = ghb_[follow % ghb_.size()];
            if (!entry.valid || entry.line == line)
                break;
            out.push_back(entry.line);
        }
    }

    append(line, 0, prev_seq);
    index_[idx] = next_seq_;
    index_tag_[idx] = line;
    ++next_seq_;
    return out;
}

std::vector<LineAddr>
GhbMcPrefetcher::correlateDeltas(LineAddr line)
{
    std::vector<LineAddr> out;
    if (!have_last_) {
        // First read ever: nothing to key on yet.
        append(line, 0, kNoLink);
        ++next_seq_;
        last_line_ = line;
        have_last_ = true;
        return out;
    }

    const std::int64_t delta =
        static_cast<std::int64_t>(line) -
        static_cast<std::int64_t>(last_line_);

    std::uint64_t prev_seq = kNoLink;
    if (have_delta_) {
        // Key: the (older, newer) delta pair ending at this read.
        const std::size_t idx = indexOfDeltas(last_delta_, delta);
        prev_seq = index_tag_d1_[idx] == last_delta_ &&
                           index_tag_d0_[idx] == delta
                       ? index_[idx]
                       : kNoLink;

        // Walk the deltas that followed the pair's last occurrence,
        // accumulating them from this read's address.
        if (inWindow(prev_seq)) {
            LineAddr addr = line;
            for (std::uint32_t d = 1; d <= config_.degree; ++d) {
                const std::uint64_t follow = prev_seq + d;
                if (!inWindow(follow) || follow >= next_seq_)
                    break;
                const GhbEntry &entry = ghb_[follow % ghb_.size()];
                if (!entry.valid || entry.delta == 0)
                    break;
                addr = static_cast<LineAddr>(
                    static_cast<std::int64_t>(addr) + entry.delta);
                if (addr != line)
                    out.push_back(addr);
            }
        }

        index_[idx] = next_seq_;
        index_tag_d1_[idx] = last_delta_;
        index_tag_d0_[idx] = delta;
    }

    append(line, delta, prev_seq);
    ++next_seq_;
    last_line_ = line;
    last_delta_ = delta;
    have_delta_ = true;
    return out;
}

std::vector<LineAddr>
GhbMcPrefetcher::observeRead(LineAddr line, std::uint32_t thread,
                             Cycle now)
{
    (void)thread;
    countReadForEpoch(now);
    return config_.delta_correlate ? correlateDeltas(line)
                                   : correlateAddress(line);
}

void
GhbMcPrefetcher::snapshot(SnapshotIo &io)
{
    BufferedMcPrefetcher::snapshot(io);
    io.expect(ghb_.size(), "GHB depth mismatch");
    for (GhbEntry &entry : ghb_) {
        io.u64(entry.line);
        io.i64(entry.delta);
        io.u64(entry.prev);
        io.b(entry.valid);
    }
    io.vecU64(index_, "GHB index size mismatch");
    io.vecU64(index_tag_, "GHB index tag size mismatch");
    // The two delta-key tables share one length.
    io.expect(index_tag_d1_.size(), "GHB delta tag size mismatch");
    for (std::int64_t &d : index_tag_d1_)
        io.i64(d);
    for (std::int64_t &d : index_tag_d0_)
        io.i64(d);
    io.u64(next_seq_);
    io.u64(last_line_);
    io.i64(last_delta_);
    io.b(have_last_);
    io.b(have_delta_);
}

} // namespace asd
