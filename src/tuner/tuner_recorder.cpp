#include "tuner/tuner_recorder.hpp"

#include <climits>
#include <ostream>
#include <sstream>

#include "common/file.hpp"
#include "common/json.hpp"
#include "common/log.hpp"

namespace asd
{

namespace
{

/** CSV/JSON policy encoding, matching the TuneSpace policy axis. */
std::uint32_t
policyCode(const AsdTuning &t)
{
    return t.sched.adaptive
               ? 0
               : static_cast<std::uint32_t>(t.sched.fixed_policy);
}

} // namespace

void
TunerRecorder::append(const TunerDecision &decision)
{
    decisions_.push_back(decision);
}

void
TunerRecorder::realize(std::uint64_t index, std::uint64_t accesses)
{
    if (index >= decisions_.size()) {
        warn("TunerRecorder: realize() for unknown decision " +
             std::to_string(index));
        return;
    }
    decisions_[index].realized_accesses = accesses;
    decisions_[index].realized_valid = true;
}

void
snapshotTuning(SnapshotIo &io, AsdTuning &t)
{
    io.u32(t.max_degree);
    io.u32(t.epoch_reads);
    io.u32(t.filter_slots);
    io.u32(t.buffer_lines);
    io.b(t.sched.adaptive);
    for (int *policy : {&t.sched.fixed_policy, &t.sched.start_policy}) {
        std::int64_t v = *policy;
        io.i64(v);
        io.check(v >= INT_MIN && v <= INT_MAX,
                 "tuning policy does not fit an int");
        if (io.loading())
            *policy = static_cast<int>(v);
    }
    io.u32(t.sched.high_watermark);
    io.u32(t.sched.low_watermark);
}

void
TunerRecorder::snapshot(SnapshotIo &io)
{
    // A decision takes 119 bytes; the log is also capped.
    const std::uint64_t count = io.count(decisions_.size(), 119);
    io.check(count <= (1u << 20), "tuner decision log implausibly long");
    if (io.loading())
        decisions_.assign(count, TunerDecision{});
    for (TunerDecision &d : decisions_) {
        io.u64(d.decision);
        io.u64(d.cycle);
        io.u64(d.epoch);
        io.u64(d.phase);
        io.u32(d.candidates);
        io.u64(d.shadow_cycles);
        io.b(d.adopted_change);
        snapshotTuning(io, d.adopted);
        io.u64(d.incumbent_shadow_accesses);
        io.u64(d.winner_shadow_accesses);
        io.u64(d.accesses_at_decision);
        io.u64(d.realized_accesses);
        io.b(d.realized_valid);
    }
}

void
writeTunerCsv(const std::vector<TunerDecision> &decisions,
              std::ostream &out)
{
    out << "decision,cycle,epoch,phase,candidates,shadow_cycles,"
           "adopted_change,degree,epoch_reads,filter_slots,"
           "buffer_lines,policy,incumbent_shadow_accesses,"
           "winner_shadow_accesses,accesses_at_decision,"
           "realized_accesses,realized_valid\n";
    for (const TunerDecision &d : decisions) {
        out << d.decision << ',' << d.cycle << ',' << d.epoch << ','
            << d.phase << ',' << d.candidates << ','
            << d.shadow_cycles << ',' << (d.adopted_change ? 1 : 0)
            << ',' << d.adopted.max_degree << ','
            << d.adopted.epoch_reads << ','
            << d.adopted.filter_slots << ','
            << d.adopted.buffer_lines << ','
            << policyCode(d.adopted) << ','
            << d.incumbent_shadow_accesses << ','
            << d.winner_shadow_accesses << ','
            << d.accesses_at_decision << ',' << d.realized_accesses
            << ',' << (d.realized_valid ? 1 : 0) << '\n';
    }
}

std::string
tunerJson(const std::vector<TunerDecision> &decisions)
{
    JsonWriter w;
    w.beginObject();
    w.key("format").value("asdsim/tuner/v1");
    w.key("decisions").beginArray();
    for (const TunerDecision &d : decisions) {
        w.beginObject();
        w.key("decision").value(d.decision);
        w.key("cycle").value(d.cycle);
        w.key("epoch").value(d.epoch);
        w.key("phase").value(d.phase);
        w.key("candidates").value(
            static_cast<std::uint64_t>(d.candidates));
        w.key("shadow_cycles").value(d.shadow_cycles);
        w.key("adopted_change").value(d.adopted_change);
        w.key("adopted").beginObject();
        w.key("degree").value(
            static_cast<std::uint64_t>(d.adopted.max_degree));
        w.key("epoch_reads").value(
            static_cast<std::uint64_t>(d.adopted.epoch_reads));
        w.key("filter_slots").value(
            static_cast<std::uint64_t>(d.adopted.filter_slots));
        w.key("buffer_lines").value(
            static_cast<std::uint64_t>(d.adopted.buffer_lines));
        w.key("policy").value(
            static_cast<std::uint64_t>(policyCode(d.adopted)));
        w.endObject();
        w.key("incumbent_shadow_accesses")
            .value(d.incumbent_shadow_accesses);
        w.key("winner_shadow_accesses")
            .value(d.winner_shadow_accesses);
        w.key("accesses_at_decision").value(d.accesses_at_decision);
        w.key("realized_accesses").value(d.realized_accesses);
        w.key("realized_valid").value(d.realized_valid);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

bool
saveTunerCsv(const std::vector<TunerDecision> &decisions,
             const std::string &path)
{
    std::ostringstream out;
    writeTunerCsv(decisions, out);
    return saveString(out.str(), path, "tuner CSV");
}

bool
saveTunerJson(const std::vector<TunerDecision> &decisions,
              const std::string &path)
{
    return saveString(tunerJson(decisions), path, "tuner JSON");
}

} // namespace asd
