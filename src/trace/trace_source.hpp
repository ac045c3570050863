#ifndef ASD_TRACE_TRACE_SOURCE_HPP
#define ASD_TRACE_TRACE_SOURCE_HPP

/**
 * @file
 * Abstract producer of MemAccess records. Implemented by the synthetic
 * workload generator, the trace-file reader, and an in-memory vector
 * source used heavily by tests.
 */

#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/mem_access.hpp"

namespace asd
{

/**
 * Pull-based trace producer. Every source is Snapshottable: the
 * checkpoint subsystem must capture the exact trace cursor so a
 * restored run resumes mid-trace instead of replaying it.
 */
class TraceSource : public Snapshottable
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next record.
     * @param out filled on success.
     * @retval false when the trace is exhausted.
     */
    virtual bool next(MemAccess &out) = 0;

    /** Restart the trace from the beginning. */
    virtual void reset() = 0;

    /** Register the source's counters under a prefix (none by default). */
    virtual void registerStats(StatRegistry &, const std::string &) const
    {}
};

/**
 * TraceSource over a caller-provided vector; used by tests and, via
 * FileTraceSource, for trace files.
 */
class VectorTraceSource : public TraceSource
{
  public:
    explicit VectorTraceSource(std::vector<MemAccess> accesses)
        : accesses_(std::move(accesses))
    {}

    bool
    next(MemAccess &out) override
    {
        if (pos_ >= accesses_.size())
            return false;
        out = accesses_[pos_++];
        return true;
    }

    void reset() override { pos_ = 0; }

    /** Total records in the trace. */
    std::size_t size() const { return accesses_.size(); }

  protected:
    void
    snapshot(SnapshotIo &io) override
    {
        io.u64(pos_);
        io.check(pos_ <= accesses_.size(),
                 "VectorTraceSource cursor out of range");
    }

  private:
    std::vector<MemAccess> accesses_;
    std::size_t pos_ = 0;
};

} // namespace asd

#endif // ASD_TRACE_TRACE_SOURCE_HPP
