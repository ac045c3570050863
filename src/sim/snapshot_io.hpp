#ifndef ASD_SIM_SNAPSHOT_IO_HPP
#define ASD_SIM_SNAPSHOT_IO_HPP

/**
 * @file
 * Glue between the snapshot format and the experiment layer: the
 * "cli" metadata section, and the canonical config hash that binds a
 * snapshot file to the run that produced it.
 *
 * A run snapshot is a machine snapshot (System::saveSnapshot) plus
 * one leading "cli" section recording what was being run: benchmark
 * name, the resolved trace length (after ASD_BENCH_SCALE and any
 * --accesses override), and every RunOptions field as a (key, text)
 * pair in field-table order. Loading rebuilds the identical System
 * from that metadata, so a snapshot file is self-describing — no
 * side-channel config file needed.
 */

#include <cstdint>
#include <string>

#include "sim/experiment.hpp"
#include "snapshot/snapshot.hpp"

namespace asd
{

/** What a run snapshot says was being run. */
struct RunRecord
{
    std::string bench;
    std::uint64_t accesses = 0;
    RunOptions options;
};

/** Write @p run as the "cli" section. */
void saveCliSection(SnapshotWriter &w, const RunRecord &run);

/**
 * Read the "cli" section back. Throws SnapshotError when a field is
 * missing, out of order, or holds a value its parser rejects.
 */
RunRecord loadCliSection(SnapshotReader &r);

/**
 * Canonical config hash for one single-threaded run: FNV-1a of the
 * benchmark name, the resolved trace length, and the RunOptions JSON
 * (which is a stable, canonical serialization). Used as the snapshot
 * header hash so a reader can reject a snapshot taken under a
 * different configuration before touching any machine state.
 */
std::uint64_t runConfigHash(const std::string &bench_name,
                            std::uint64_t accesses,
                            const RunOptions &options);

} // namespace asd

#endif // ASD_SIM_SNAPSHOT_IO_HPP
