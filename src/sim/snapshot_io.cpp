#include "sim/snapshot_io.hpp"

#include "sim/serialize.hpp"

namespace asd
{

void
saveCliSection(SnapshotWriter &w, const RunRecord &run)
{
    const std::vector<OptionField> &fields = runOptionFields();
    w.beginSection("cli");
    w.str(run.bench);
    w.u64(run.accesses);
    w.u64(fields.size());
    for (const OptionField &f : fields) {
        w.str(f.key);
        w.str(f.format(run.options));
    }
    w.endSection();
}

RunRecord
loadCliSection(SnapshotReader &r)
{
    const std::vector<OptionField> &fields = runOptionFields();
    RunRecord run;
    r.openSection("cli");
    run.bench = r.str();
    run.accesses = r.u64();
    SnapshotReader::check(r.u64() == fields.size(),
                          "cli section field count mismatch");
    for (const OptionField &f : fields) {
        if (r.str() != f.key)
            throw SnapshotError(std::string("cli section lacks ") +
                                f.key);
        const CliError error = f.parse(run.options, r.str());
        if (error)
            throw SnapshotError(std::string("cli section ") + f.key +
                                ": " + *error);
    }
    r.endSection();
    return run;
}

std::uint64_t
runConfigHash(const std::string &bench_name, std::uint64_t accesses,
              const RunOptions &options)
{
    return fnv1a64(bench_name + "\n" + std::to_string(accesses) +
                   "\n" + toJson(options));
}

} // namespace asd
