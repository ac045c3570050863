#ifndef ASD_CACHE_MSHR_HPP
#define ASD_CACHE_MSHR_HPP

/**
 * @file
 * Miss Status Holding Registers: merge concurrent demand misses to the
 * same line so only one memory request is outstanding per line.
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "snapshot/snapshot.hpp"

namespace asd
{

/**
 * Fixed-capacity MSHR file. Entries are identified by line address;
 * each holds a waiter count so merged misses can all be released by
 * one fill.
 */
class MshrFile : public Snapshottable
{
  public:
    explicit MshrFile(std::size_t capacity) : capacity_(capacity) {}

    /** True when no new entry can be allocated. */
    bool full() const { return entries_.size() >= capacity_; }

    /** True when @p line already has an outstanding miss. */
    bool
    has(LineAddr line) const
    {
        return findIndex(line) != entries_.size();
    }

    /**
     * Record a miss on @p line. Merges into an existing entry when one
     * exists; otherwise allocates (caller must check full() first).
     * @retval true when this was a merge (no new memory request
     *         should be sent).
     */
    bool
    allocate(LineAddr line)
    {
        const std::size_t idx = findIndex(line);
        if (idx != entries_.size()) {
            ++entries_[idx].waiters;
            return true;
        }
        entries_.push_back({line, 1});
        return false;
    }

    /**
     * Complete the miss on @p line.
     * @return number of waiters released (0 if no such entry).
     */
    std::uint32_t
    release(LineAddr line)
    {
        const std::size_t idx = findIndex(line);
        if (idx == entries_.size())
            return 0;
        const std::uint32_t waiters = entries_[idx].waiters;
        entries_.erase(entries_.begin() +
                       static_cast<std::ptrdiff_t>(idx));
        return waiters;
    }

    std::size_t inUse() const { return entries_.size(); }
    std::size_t capacity() const { return capacity_; }

  protected:
    void
    snapshot(SnapshotIo &io) override
    {
        auto count = static_cast<std::uint32_t>(entries_.size());
        io.u32(count);
        io.check(count <= capacity_, "MSHR entry count exceeds capacity");
        if (io.loading())
            entries_.resize(count);
        for (Entry &entry : entries_) {
            io.u64(entry.line);
            io.u32(entry.waiters);
        }
    }

  private:
    struct Entry
    {
        LineAddr line;
        std::uint32_t waiters;
    };

    std::size_t
    findIndex(LineAddr line) const
    {
        for (std::size_t i = 0; i < entries_.size(); ++i)
            if (entries_[i].line == line)
                return i;
        return entries_.size();
    }

    std::size_t capacity_;
    std::vector<Entry> entries_;
};

} // namespace asd

#endif // ASD_CACHE_MSHR_HPP
