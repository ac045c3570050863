#ifndef ASD_TRACE_TRACE_FILE_HPP
#define ASD_TRACE_TRACE_FILE_HPP

/**
 * @file
 * A compact binary on-disk trace format so users can drive the
 * simulator with their own access traces (see examples/custom_trace).
 *
 * Layout: 16-byte header ("ASDT", u32 version, u64 record count)
 * followed by packed records of {u64 addr, u32 gap, u8 flags}.
 * Flags: bit 0 = write, bit 1 = dependent.
 *
 * The header's record count is validated against the actual file
 * size on open, so truncated or corrupt traces fail with a clear
 * message instead of feeding garbage into a simulation.
 */

#include <string>
#include <vector>

#include "trace/trace_source.hpp"

namespace asd
{

/** Current trace file format version. */
inline constexpr std::uint32_t kTraceFormatVersion = 1;

/** Write @p accesses to @p path; fatal() on I/O failure. */
void writeTraceFile(const std::string &path,
                    const std::vector<MemAccess> &accesses);

/** Read a whole trace file; fatal() on I/O or format errors. */
std::vector<MemAccess> readTraceFile(const std::string &path);

/**
 * TraceSource over a binary trace file: the whole trace is read by
 * readTraceFile() on construction, then served and checkpointed as a
 * VectorTraceSource (the snapshot state is the cursor).
 */
class FileTraceSource : public VectorTraceSource
{
  public:
    explicit FileTraceSource(const std::string &path)
        : VectorTraceSource(readTraceFile(path))
    {}
};

} // namespace asd

#endif // ASD_TRACE_TRACE_FILE_HPP
