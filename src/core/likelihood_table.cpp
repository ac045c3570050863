#include "core/likelihood_table.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/log.hpp"

namespace asd
{

LikelihoodTable::LikelihoodTable(std::size_t entries)
    : counts_(entries, 0)
{
    panicIfNot(entries > 0, "LikelihoodTable needs at least one entry");
}

void
LikelihoodTable::recordStream(std::uint64_t len)
{
    panicIfNot(len >= 1, "stream length must be >= 1");
    const std::size_t limit =
        std::min<std::size_t>(static_cast<std::size_t>(len),
                              counts_.size());
    for (std::size_t i = 0; i < limit; ++i)
        ++counts_[i];
    if (checksEnabled()) {
        // A record-only table (LHTnext) stays monotone by
        // construction: lht(k) >= lht(k+1).
        for (std::size_t i = 1; i < counts_.size(); ++i)
            checkThat(counts_[i - 1] >= counts_[i],
                      "LHT monotonicity violated after recordStream");
    }
}

void
LikelihoodTable::removeStream(std::uint64_t len)
{
    panicIfNot(len >= 1, "stream length must be >= 1");
    if (checksEnabled()) {
        const std::size_t limit =
            std::min<std::size_t>(static_cast<std::size_t>(len),
                                  counts_.size());
        for (std::size_t i = 0; i < limit; ++i)
            checkThat(counts_[i] > 0,
                      "LHT underflow: removeStream beyond recorded "
                      "streams (add/remove mismatch)");
    }
    removeStreamSaturating(len);
}

void
LikelihoodTable::removeStreamSaturating(std::uint64_t len)
{
    panicIfNot(len >= 1, "stream length must be >= 1");
    const std::size_t limit =
        std::min<std::size_t>(static_cast<std::size_t>(len),
                              counts_.size());
    for (std::size_t i = 0; i < limit; ++i) {
        if (counts_[i] > 0)
            --counts_[i];
        else
            ++underflow_clamps_;
    }
}

std::uint64_t
LikelihoodTable::at(std::size_t i) const
{
    return lhtAt(counts_, i);
}

void
LikelihoodTable::loadFrom(const LikelihoodTable &other)
{
    panicIfNot(other.counts_.size() == counts_.size(),
               "LikelihoodTable size mismatch");
    counts_ = other.counts_;
}

void
LikelihoodTable::clear()
{
    std::fill(counts_.begin(), counts_.end(), 0);
}

void
LikelihoodTable::snapshot(SnapshotIo &io)
{
    io.vecU64(counts_, "likelihood table size mismatch");
    io.u64(underflow_clamps_);
}

} // namespace asd
