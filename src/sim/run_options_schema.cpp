#include "sim/run_options_schema.hpp"

#include <algorithm>
#include <charconv>
#include <type_traits>

namespace asd
{

namespace
{

// Text, JSON and --help placeholder of each value type: a bool, a
// named enum, a number, a u32 list, or an optional of one of those.
// Parsing checks numbers (and list items) against [min, max].

using U32List = std::vector<std::uint32_t>;

template <typename T>
std::string
toText(const T &v)
{
    if constexpr (std::is_same_v<T, bool>) {
        return v ? "true" : "false";
    } else if constexpr (NamedEnum<T>) {
        return toString(v);
    } else if constexpr (std::is_arithmetic_v<T>) {
        // Decimal; for doubles the shortest text that reads back exact.
        char buf[32];
        return std::string(buf, std::to_chars(buf, buf + 32, v).ptr);
    } else if constexpr (std::is_same_v<T, U32List>) {
        std::string out;
        for (const std::uint32_t x : v)
            out += (out.empty() ? "" : ",") + toText(x);
        return out;
    } else {
        return v ? toText(*v) : ""; // unset: the empty text
    }
}

template <typename T>
CliError
fromText(std::string_view text, T &out, double min, double max)
{
    if constexpr (std::is_same_v<T, bool>) {
        out = text == "true";
        return out || text == "false"
                   ? CliError()
                   : "expected true or false, got '" +
                         std::string(text) + "'";
    } else if constexpr (NamedEnum<T>) {
        const std::optional<T> v = parseEnum<T>(text);
        out = v.value_or(out);
        return v ? CliError()
                 : "unknown name '" + std::string(text) + "' (use " +
                       enumChoices<T>() + ")";
    } else if constexpr (std::is_arithmetic_v<T>) {
        constexpr T top = std::numeric_limits<T>::max();
        return parseNumber(text, static_cast<T>(min),
                           max >= static_cast<double>(top)
                               ? top
                               : static_cast<T>(max),
                           out);
    } else if constexpr (std::is_same_v<T, U32List>) {
        std::vector<std::string> items;
        CliError error =
            text.empty() ? CliError() : splitList(text, items);
        out.clear();
        for (std::size_t i = 0; !error && i < items.size(); ++i)
            error = fromText(items[i], out.emplace_back(), min, max);
        return error;
    } else {
        out.reset();
        CliError error = text.empty()
                             ? CliError()
                             : fromText(text, out.emplace(), min, max);
        if (error)
            out.reset();
        return error;
    }
}

template <typename T>
void
jsonOf(JsonWriter &w, const T &v)
{
    if constexpr (NamedEnum<T>) {
        w.value(toString(v));
    } else if constexpr (std::is_arithmetic_v<T>) {
        w.value(v);
    } else if constexpr (std::is_same_v<T, U32List>) {
        w.beginArray();
        for (const std::uint32_t x : v)
            w.value(x);
        w.endArray();
    } else if (v) {
        jsonOf(w, *v);
    } else {
        w.null();
    }
}

template <typename T>
std::string
metavarOf(const T &v)
{
    if constexpr (NamedEnum<T>)
        return enumChoices<T>();
    else if constexpr (std::is_same_v<T, bool>)
        return "";
    else if constexpr (std::is_arithmetic_v<T>)
        return std::is_floating_point_v<T> ? "F" : "N";
    else if constexpr (std::is_same_v<T, U32List>)
        return "LIST";
    else
        return metavarOf(v.value_or(typename T::value_type{}));
}

const RunOptions &
defaults()
{
    static const RunOptions options;
    return options;
}

/** Bind @p spec to the member @p access reaches. */
template <typename Access>
OptionField
field(OptionSpec spec, Access access)
{
    using T = std::remove_cvref_t<decltype(access(defaults()))>;
    OptionField f{spec};
    f.metavar = metavarOf(access(defaults()));
    f.format = [=](const RunOptions &o) { return toText(access(o)); };
    f.parse = [=](RunOptions &o, std::string_view text) {
        T v{};
        CliError error = fromText(text, v, spec.min, spec.max);
        if (!error)
            access(o) = std::move(v);
        return error;
    };
    f.write_json = [=](JsonWriter &w, const RunOptions &o) {
        jsonOf(w, access(o));
    };
    return f;
}

// clang-format off
bool always(const RunOptions &) { return true; }
bool vmOn(const RunOptions &o) { return o.vm.enabled; }
bool osOn(const RunOptions &o) { return o.os.enabled; }
bool tenantsOn(const RunOptions &o) { return o.tenants.enabled; }
bool tunerOn(const RunOptions &o) { return o.tuner.enabled; }
/** Page size and TLB geometry shape both translation layers. */
bool translated(const RunOptions &o) { return vmOn(o) || osOn(o); }
bool vmBasePages(const RunOptions &o)
{
    return vmOn(o) && o.vm.policy != FrameAllocPolicy::HugePage;
}
bool &vmSwitch(RunOptions &o) { return o.vm.enabled; }
bool &osSwitch(RunOptions &o) { return o.os.enabled; }
bool &tenantsSwitch(RunOptions &o) { return o.tenants.enabled; }
// clang-format on

constexpr double kMaxLines = 1 << 20;
constexpr double kMaxCycles = 1ULL << 40;

using R = RunOptions;
using Vm = VmConfig;
using Tlb = TlbConfig;
using Os = OsConfig;
using Ten = TenantMixConfig;
using Tun = TunerConfig;
using Space = TuneSpace;
using Tel = TelemetryConfig;

// clang-format off
std::vector<OptionField>
buildTable()
{
    return {
        field({.key = "mode", .flag = "--mode", .help = "prefetch mode",
               .id = {1, ".", true}, .axis = {"--modes", "NP,PS,MS,PMS"}},
              at(&R::mode)),
        field({.key = "mc_prefetcher", .flag = "--mc-prefetcher",
               .help = "memory-side prefetcher", .id = {2, ".", true},
               .axis = {"--prefetchers"}}, at(&R::mc_prefetcher)),
        field({.key = "ps_kind", .flag = "--ps", .help = "CPU-side prefetcher",
               .id = {7, ".ps_"}, .warmup = always}, at(&R::ps_kind)),
        field({.key = "scheduler", .flag = "--scheduler",
               .help = "memory-controller scheduler", .id = {6, "."},
               .warmup = always}, at(&R::scheduler)),
        field({.key = "fixed_policy", .flag = "--policy",
               .help = "pin the LPQ policy, 1..5 (no Adaptive Scheduling)",
               .min = 1, .max = 5, .id = {8, ".pol"}}, at(&R::fixed_policy)),
        field({.key = "buffer_lines", .flag = "--buffer",
               .help = "Prefetch Buffer lines", .min = 1, .max = kMaxLines,
               .id = {3, ".pb", true}, .axis = {"--buffer-lines"}},
              at(&R::buffer_lines)),
        field({.key = "filter_slots", .flag = "--slots",
               .help = "Stream Filter slots", .min = 1, .max = kMaxLines,
               .id = {4, "_sf", true}, .axis = {"--filter-slots"}},
              at(&R::filter_slots)),
        field({.key = "max_degree", .flag = "--degree",
               .help = "max prefetch degree", .min = 1, .max = kMaxLines,
               .id = {5, "_d", true}, .axis = {"--degrees"}},
              at(&R::max_degree)),
        field({.key = "saturate_long_streams", .flag = "--saturate",
               .help = "keep prefetching streams beyond Lm",
               .id = {9, ".sat"}}, at(&R::saturate_long_streams)),
        field({.key = "ps_oracle", .flag = "--ps-oracle",
               .help = "idealized (instant, free) CPU-side fills",
               .id = {17, ".oracle"}, .warmup = always}, at(&R::ps_oracle)),
        field({.key = "accesses", .flag = "--accesses",
               .help = "trace length override", .id = {20, ".acc"}},
              at(&R::accesses)),
        field({.key = "warmup_cycles", .flag = "--warmup",
               .help = "cycles before the memory-side prefetcher is armed",
               .id = {21, ".wu"}, .warmup = always}, at(&R::warmup_cycles)),

        field({.key = "vm.enabled", .warmup = always},
              at(&R::vm, &Vm::enabled)),
        field({.key = "vm.policy", .flag = "--vm-policy",
               .help = "enable virtual memory with this frame allocator",
               .id = {10, ".vm_", true, vmOn}, .warmup = vmOn,
               .axis = {"--vm-policies"}, .enables = vmSwitch,
               .flag_enables = true}, at(&R::vm, &Vm::policy)),
        field({.key = "vm.page_bytes", .flag = "--vm-page-bytes",
               .help = "base page size in bytes", .min = 128, .max = 1 << 30,
               .id = {11, "_p", true, vmBasePages}, .warmup = translated,
               .axis = {"--vm-page-bytes", nullptr, vmBasePages}},
              at(&R::vm, &Vm::page_bytes)),
        field({.key = "vm.huge_bytes", .min = 128, .max = 1ULL << 40,
               .warmup = vmOn}, at(&R::vm, &Vm::huge_bytes)),
        field({.key = "vm.phys_bytes", .flag = "--vm-phys-mb",
               .help = "physical memory in MiB", .min = 1 << 20,
               .max = 1ULL << 62, .warmup = vmOn, .flag_shift = 20},
              at(&R::vm, &Vm::phys_bytes)),
        field({.key = "vm.seed", .flag = "--vm-seed",
               .help = "frame-shuffle seed", .warmup = vmOn},
              at(&R::vm, &Vm::seed)),
        field({.key = "vm.tlb_entries", .flag = "--vm-tlb-entries",
               .help = "TLB entries", .min = 1, .max = kMaxLines,
               .warmup = translated}, at(&R::vm, &Vm::tlb, &Tlb::entries)),
        field({.key = "vm.tlb_ways", .flag = "--vm-tlb-ways",
               .help = "TLB associativity", .min = 1, .max = kMaxLines,
               .warmup = translated}, at(&R::vm, &Vm::tlb, &Tlb::ways)),
        field({.key = "vm.walk_cycles", .flag = "--vm-walk-cycles",
               .help = "page-walk stall", .max = kMaxCycles,
               .warmup = translated},
              at(&R::vm, &Vm::tlb, &Tlb::walk_cycles)),
        field({.key = "vm.walker", .flag = "--os-walker",
               .help = "page-table walker of the OS model",
               .emit = Emit::NonDefault, .id = {13, "_", false, osOn},
               .warmup = osOn, .axis = {"--os-walkers", nullptr, osOn}},
              at(&R::vm, &Vm::walker)),

        field({.key = "ghb_delta_correlate", .emit = Emit::NonDefault,
               .id = {18, ".dc"}}, at(&R::ghb_delta_correlate)),

        field({.key = "os.enabled", .flag = "--os",
               .help = "enable the OS memory model (demand paging, "
                       "finite frames, CLOCK reclaim)",
               .emit = Emit::Never, .warmup = always},
              at(&R::os, &Os::enabled)),
        field({.key = "os.frames", .flag = "--os-frames",
               .help = "frames in the OS model's pool", .min = 1,
               .max = 1ULL << 32, .emit_if = osOn,
               .id = {12, ".os_f", true, osOn}, .warmup = osOn,
               .axis = {"--os-frames"}, .enables = osSwitch},
              at(&R::os, &Os::frames)),
        field({.key = "os.minor_fault_cycles", .flag = "--os-minor-cycles",
               .help = "minor page-fault stall", .max = kMaxCycles,
               .emit_if = osOn, .warmup = osOn},
              at(&R::os, &Os::minor_fault_cycles)),
        field({.key = "os.major_fault_cycles", .flag = "--os-major-cycles",
               .help = "major page-fault stall", .max = kMaxCycles,
               .emit_if = osOn, .warmup = osOn},
              at(&R::os, &Os::major_fault_cycles)),
        field({.key = "os.major_fault_frac", .flag = "--os-major-frac",
               .help = "fraction of faults that are major", .max = 1,
               .emit_if = osOn, .warmup = osOn},
              at(&R::os, &Os::major_fault_frac)),
        field({.key = "os.reclaim_cycles", .flag = "--os-reclaim-cycles",
               .help = "CLOCK reclaim stall", .max = kMaxCycles,
               .emit_if = osOn, .warmup = osOn},
              at(&R::os, &Os::reclaim_cycles)),
        field({.key = "os.writeback_cycles", .flag = "--os-writeback-cycles",
               .help = "dirty-victim writeback stall", .max = kMaxCycles,
               .emit_if = osOn, .warmup = osOn},
              at(&R::os, &Os::writeback_cycles)),
        field({.key = "os.hashed_probe_cycles", .flag = "--os-probe-cycles",
               .help = "hashed-walker per-probe stall", .max = kMaxCycles,
               .emit_if = osOn, .warmup = osOn},
              at(&R::os, &Os::hashed_probe_cycles)),
        field({.key = "os.seed", .flag = "--os-seed",
               .help = "fault/frame-shuffle seed", .emit_if = osOn,
               .warmup = osOn}, at(&R::os, &Os::seed)),

        field({.key = "tenants.enabled", .emit = Emit::Never},
              at(&R::tenants, &Ten::enabled)),
        field({.key = "tenants.slots", .flag = "--tenants",
               .help = "interleave N tenants of the benchmark", .min = 1,
               .max = 1024, .emit_if = tenantsOn,
               .id = {14, ".ten", true, tenantsOn}, .axis = {"--tenants"},
               .enables = tenantsSwitch, .flag_enables = true},
              at(&R::tenants, &Ten::slots)),
        field({.key = "tenants.zipf_s", .flag = "--tenants-zipf",
               .help = "Zipf exponent of the per-tenant intensity skew",
               .emit_if = tenantsOn, .id = {15, "_z", true, tenantsOn, true}},
              at(&R::tenants, &Ten::zipf_s)),
        field({.key = "tenants.mean_lifetime", .flag = "--tenants-lifetime",
               .help = "mean tenant lifetime in accesses (0 = immortal)",
               .emit_if = tenantsOn, .id = {16, "_l", true, tenantsOn}},
              at(&R::tenants, &Ten::mean_lifetime)),
        field({.key = "tenants.seed", .flag = "--tenants-seed",
               .help = "slot/lifetime draw seed", .emit_if = tenantsOn},
              at(&R::tenants, &Ten::seed)),

        field({.key = "tuner.enabled", .flag = "--tune",
               .help = "run the phase-adaptive tuner (ASD in MS or PMS)",
               .emit = Emit::Never, .id = {19, ".tune"}, .axis = {"--tune"}},
              at(&R::tuner, &Tun::enabled)),
        field({.key = "tuner.shadow_horizon", .flag = "--tune-horizon",
               .help = "shadow simulation length in cycles",
               .max = kMaxCycles, .emit_if = tunerOn},
              at(&R::tuner, &Tun::shadow_horizon)),
        field({.key = "tuner.min_epochs_between", .flag = "--tune-min-epochs",
               .help = "epochs between decisions", .emit_if = tunerOn},
              at(&R::tuner, &Tun::min_epochs_between)),
        field({.key = "tuner.max_decisions", .flag = "--tune-max-decisions",
               .help = "cap decisions per run (0 = all)", .emit_if = tunerOn},
              at(&R::tuner, &Tun::max_decisions)),
        field({.key = "tuner.shadow_threads", .flag = "--tune-threads",
               .help = "shadow worker threads (0 = hardware default)",
               .max = 4096, .emit_if = tunerOn},
              at(&R::tuner, &Tun::shadow_threads)),
        field({.key = "tuner.phase_window", .flag = "--tune-window",
               .help = "phase detector window, epochs", .min = 1,
               .emit_if = tunerOn}, at(&R::tuner, &Tun::phase_window)),
        field({.key = "tuner.phase_threshold_milli_pct",
               .flag = "--tune-threshold",
               .help = "phase change threshold, milli-pct",
               .emit_if = tunerOn},
              at(&R::tuner, &Tun::phase_threshold_milli_pct)),
        field({.key = "tuner.degrees", .flag = "--tune-degrees",
               .help = "degree axis", .min = 1, .max = kMaxLines,
               .emit_if = tunerOn},
              at(&R::tuner, &Tun::space, &Space::degrees)),
        field({.key = "tuner.filter_slots", .flag = "--tune-slots",
               .help = "filter-slot axis", .min = 1, .max = kMaxLines,
               .emit_if = tunerOn},
              at(&R::tuner, &Tun::space, &Space::filter_slots)),
        field({.key = "tuner.buffer_lines", .flag = "--tune-buffers",
               .help = "buffer-line axis", .min = 1, .max = kMaxLines,
               .emit_if = tunerOn},
              at(&R::tuner, &Tun::space, &Space::buffer_lines)),
        field({.key = "tuner.epoch_reads", .flag = "--tune-epochs",
               .help = "epoch-length axis", .min = 1, .emit_if = tunerOn},
              at(&R::tuner, &Tun::space, &Space::epoch_reads)),
        field({.key = "tuner.policies", .flag = "--tune-policies",
               .help = "policy axis (0 = adaptive walk, 1..5 = pinned)",
               .max = 5, .emit_if = tunerOn},
              at(&R::tuner, &Tun::space, &Space::policies)),

        // Observational only: hashing it would perturb every options
        // JSON and config hash.
        field({.key = "telemetry.enabled", .flag = "--telemetry",
               .help = "record per-epoch telemetry", .emit = Emit::Never},
              at(&R::telemetry, &Tel::enabled)),
        field({.key = "telemetry.capture_slh", .flag = "--telemetry-no-slh",
               .help = "omit per-thread SLH snapshots", .emit = Emit::Never},
              at(&R::telemetry, &Tel::capture_slh)),
        field({.key = "telemetry.max_epochs", .flag = "--telemetry-max-epochs",
               .help = "cap the recorded epochs (0 = all)",
               .emit = Emit::Never}, at(&R::telemetry, &Tel::max_epochs)),
    };
}
// clang-format on

/** The fields with a job-id fragment, in id (and axis) order. */
const std::vector<const OptionField *> &
idOrder()
{
    static const std::vector<const OptionField *> order = [] {
        std::vector<const OptionField *> out;
        for (const OptionField &f : runOptionFields())
            if (f.id.rank != 0)
                out.push_back(&f);
        std::sort(out.begin(), out.end(), [](auto *a, auto *b) {
            return a->id.rank < b->id.rank;
        });
        return out;
    }();
    return order;
}

/** The default --help shows ("" when absence of the flag is it). */
std::string
defaultText(const OptionField &f)
{
    const std::string text = f.format(defaults());
    if (f.isSwitch() || f.flag_enables || text.empty())
        return "";
    if (f.flag_shift == 0)
        return text;
    return std::to_string(std::stoull(text) >> f.flag_shift);
}

void
expandFrom(const std::vector<SweepAxis> &axes, std::size_t k,
           const RunOptions &point, std::vector<RunOptions> &out)
{
    if (k == axes.size()) {
        if (!validate(point))
            out.push_back(point);
        return;
    }
    const OptionField &f = *axes[k].field;
    if (f.axis.expand_if && !f.axis.expand_if(point)) {
        expandFrom(axes, k + 1, point, out);
        return;
    }
    for (const std::string &value : axes[k].values) {
        RunOptions next = point;
        const CliError error = f.applyAxisValue(next, value);
        panicIfNot(!error, "unchecked sweep axis value " + value);
        expandFrom(axes, k + 1, next, out);
    }
}

} // namespace

CliError
OptionField::applyFlag(RunOptions &o, std::string_view value) const
{
    CliError error;
    std::uint64_t units = 0;
    if (isSwitch())
        error = parse(o, format(defaults()) == "true" ? "false" : "true");
    else if (flag_shift == 0)
        error = parse(o, value);
    else if (!(error = parseNumber<std::uint64_t>(
                   value, 0, ~0ULL >> flag_shift, units)))
        error = parse(o, std::to_string(units << flag_shift));
    if (!error && flag_enables)
        enables(o) = true;
    return error;
}

CliError
OptionField::applyAxisValue(RunOptions &o, std::string_view value) const
{
    const bool off = enables && value == "off";
    CliError error = off ? std::nullopt : parse(o, value);
    if (!error && enables)
        enables(o) = !off;
    return error;
}

bool
OptionField::isDefault(const RunOptions &o) const
{
    return format(o) == format(defaults());
}

bool
OptionField::emitted(const RunOptions &o) const
{
    if (emit_if && !emit_if(o))
        return false;
    return emit == Emit::Always ||
           (emit == Emit::NonDefault && !isDefault(o));
}

const std::vector<OptionField> &
runOptionFields()
{
    static const std::vector<OptionField> fields = buildTable();
    return fields;
}

CliError
validate(const RunOptions &options, const RunContext &context)
{
    if (options.os.enabled && options.vm.enabled)
        return "--os and --vm-policy are mutually exclusive (the OS "
               "model replaces the VM layer's infinite allocators)";
    if (context.smt && context.snapshot)
        return "--smt cannot be combined with snapshot save/load";
    if (context.smt && options.tuner.enabled)
        return "--tune cannot be combined with --smt";
    if (context.smt && options.tenants.enabled)
        return "--tenants cannot be combined with --smt (the mix is "
               "one interleaved trace)";
    if (options.tuner.enabled && options.mode != PrefetchMode::MS &&
        options.mode != PrefetchMode::PMS)
        return "tuning needs a memory-side prefetcher (mode MS or PMS)";
    if (options.tuner.enabled &&
        options.mc_prefetcher != McPrefetcherKind::Asd)
        return "the tuner reconfigures ASD; --mc-prefetcher must be asd";
    return std::nullopt;
}

std::vector<CliFlag>
runOptionFlags(RunOptions &target)
{
    std::vector<CliFlag> flags;
    for (const OptionField &f : runOptionFields()) {
        const std::string def = defaultText(f);
        if (f.flag)
            flags.push_back(
                {f.flag, f.metavar,
                 f.help + (def.empty() ? "" : " (default " + def + ")"),
                 [&target, &f](const std::string &value) {
                     return f.applyFlag(target, value);
                 }});
    }
    return flags;
}

std::string
jobIdSuffix(const RunOptions &options)
{
    std::string id;
    for (const OptionField *f : idOrder()) {
        const IdPart &part = f->id;
        if ((part.gate && !part.gate(options)) ||
            (!part.always && f->isDefault(options)))
            continue;
        const std::string text = f->isSwitch() ? "" : f->format(options);
        id += part.prefix;
        id += part.milli ? std::to_string(static_cast<long long>(
                               std::stod(text) * 1000.0 + 0.5))
                         : text;
    }
    return id;
}

std::string
warmupFields(const RunOptions &options)
{
    std::string out;
    for (const OptionField &f : runOptionFields())
        if (f.warmup && f.warmup(options))
            out += ";" + std::string(f.key) + "=" + f.format(options);
    return out;
}

std::vector<SweepAxis>
sweepAxes()
{
    std::vector<SweepAxis> axes;
    for (const OptionField *f : idOrder()) {
        if (!f->axis.flag)
            continue;
        axes.push_back({f, {f->enables ? "off" : f->format(defaults())}});
        if (f->axis.values)
            splitList(f->axis.values, axes.back().values);
    }
    return axes;
}

std::vector<CliFlag>
sweepAxisFlags(std::vector<SweepAxis> &axes)
{
    std::vector<CliFlag> flags;
    for (SweepAxis &axis : axes) {
        const OptionField &f = *axis.field;
        if (f.isSwitch()) {
            // A switch axis adds the switched-on variant of every point
            // that admits it.
            flags.push_back({f.axis.flag, "",
                             std::string("also run each point with: ") +
                                 f.help,
                             [&axis](const std::string &) {
                                 axis.values = {"false", "true"};
                                 return std::nullopt;
                             }});
            continue;
        }
        std::string help = f.help + std::string("; comma list of ") +
                           (f.enables ? "off|" : "") + f.metavar +
                           " (default " + axis.values.front();
        for (std::size_t i = 1; i < axis.values.size(); ++i)
            help += "," + axis.values[i];
        // A repeated flag extends the list it started.
        flags.push_back(
            {f.axis.flag, "LIST", help + ")",
             [&axis, given = false](
                 const std::string &text) mutable -> CliError {
                 std::vector<std::string> values;
                 CliError error = splitList(text, values);
                 RunOptions scratch;
                 for (std::size_t i = 0; !error && i < values.size(); ++i)
                     error = axis.field->applyAxisValue(scratch, values[i]);
                 if (error)
                     return error;
                 if (!given)
                     axis.values.clear();
                 given = true;
                 axis.values.insert(axis.values.end(), values.begin(),
                                    values.end());
                 return std::nullopt;
             }});
    }
    return flags;
}

std::vector<RunOptions>
expandGrid(const RunOptions &base, const std::vector<SweepAxis> &axes)
{
    std::vector<RunOptions> out;
    expandFrom(axes, 0, base, out);
    return out;
}

} // namespace asd
