#ifndef ASD_SIM_RUN_OPTIONS_SCHEMA_HPP
#define ASD_SIM_RUN_OPTIONS_SCHEMA_HPP

/**
 * @file
 * The one declaration of every RunOptions field. Each table entry
 * names the field's asdsim_cli flag and asdsweep axis, its checked
 * text parse/format pair, its JSON key and emission rule, its job-id
 * fragment, whether it shapes the warm-up, and its help text. The
 * CLIs, the sweep grid, the options JSON (and the config hash built
 * on it), the snapshot "cli" section, job ids and warm-up keys all
 * read the table, so a new knob is one entry.
 *
 * Enum names live here too: an enum opts in by declaring
 * `constexpr std::array<EnumName<E>, N> enumNames(E)`, and that one
 * list drives toString(), parseEnum() and the choices in --help.
 */

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "sim/experiment.hpp"

namespace asd
{

template <typename E>
struct EnumName
{
    E value;
    std::string_view name;
};

template <typename E>
concept NamedEnum = requires(E e) { enumNames(e); };

template <NamedEnum E>
std::string
toString(E value)
{
    for (const EnumName<E> &entry : enumNames(value))
        if (entry.value == value)
            return std::string(entry.name);
    panic("enum value missing from its name list");
}

/** Case-sensitive inverse of toString(); nullopt on unknown text. */
template <NamedEnum E>
std::optional<E>
parseEnum(std::string_view text)
{
    for (const EnumName<E> &entry : enumNames(E{}))
        if (entry.name == text)
            return entry.value;
    return std::nullopt;
}

/** Every name of @p E as "a|b|c". */
template <NamedEnum E>
std::string
enumChoices()
{
    std::string out;
    for (const EnumName<E> &entry : enumNames(E{}))
        out += (out.empty() ? "" : "|") + std::string(entry.name);
    return out;
}

// clang-format off
constexpr std::array<EnumName<PrefetchMode>, 4>
enumNames(PrefetchMode)
{
    return {{{PrefetchMode::NP, "NP"}, {PrefetchMode::PS, "PS"},
             {PrefetchMode::MS, "MS"}, {PrefetchMode::PMS, "PMS"}}};
}

constexpr std::array<EnumName<McPrefetcherKind>, 7>
enumNames(McPrefetcherKind)
{
    using K = McPrefetcherKind;
    return {{{K::Asd, "asd"}, {K::NextLine, "nextline"},
             {K::P5Style, "p5"}, {K::Ghb, "ghb"}, {K::Stride, "stride"},
             {K::Dspatch, "dspatch"}, {K::Perceptron, "perceptron"}}};
}

constexpr std::array<EnumName<PsKind>, 2>
enumNames(PsKind)
{
    return {{{PsKind::Power5, "power5"}, {PsKind::Asd, "asd"}}};
}

constexpr std::array<EnumName<SchedulerKind>, 4>
enumNames(SchedulerKind)
{
    using K = SchedulerKind;
    return {{{K::Ahb, "ahb"}, {K::Memoryless, "memoryless"},
             {K::InOrder, "inorder"}, {K::FrFcfs, "frfcfs"}}};
}

constexpr std::array<EnumName<FrameAllocPolicy>, 4>
enumNames(FrameAllocPolicy)
{
    using P = FrameAllocPolicy;
    return {{{P::Identity, "identity"}, {P::Sequential, "seq"},
             {P::RandomShuffle, "random"}, {P::HugePage, "huge"}}};
}

constexpr std::array<EnumName<PageWalkerKind>, 2>
enumNames(PageWalkerKind)
{
    return {{{PageWalkerKind::Radix, "radix"},
             {PageWalkerKind::Hashed, "hashed"}}};
}
// clang-format on

/** Accessor for a member path: at(&RunOptions::vm, &VmConfig::seed). */
template <typename... Members>
auto
at(Members... path)
{
    return [=](auto &o) -> auto & { return (o.*....*path); };
}

using OptionsPredicate = bool (*)(const RunOptions &);

/** How a field appears in the options JSON (and so the config hash). */
enum class Emit : std::uint8_t
{
    Always,     //!< in every options JSON
    NonDefault, //!< only off its default, so older records keep bytes
    Never,      //!< unhashed: observational, or implied by its group
};

/** A field's fragment of the sweep job id. */
struct IdPart
{
    int rank = 0;            //!< order within the id; 0 = not in it
    const char *prefix = ""; //!< written before the value
    bool always = false;     //!< written even at the default value
    OptionsPredicate gate = nullptr; //!< and only while this holds
    bool milli = false; //!< value x1000, rounded: keeps '.' out of ids
};

/** A field's asdsweep axis. */
struct AxisSpec
{
    const char *flag = nullptr;   //!< nullptr = no axis
    const char *values = nullptr; //!< default list; nullptr = the
                                  //!< field's default, or "off"
    OptionsPredicate expand_if = nullptr; //!< elsewhere: one point at
                                          //!< the field's default
};

/** The declarative half of a table entry. */
struct OptionSpec
{
    const char *key;            //!< JSON path, e.g. "vm.page_bytes"
    const char *flag = nullptr; //!< asdsim_cli flag
    const char *help = "";
    double min = 0; //!< numbers (and list items) must lie in [min, max]
    double max = std::numeric_limits<double>::max();
    Emit emit = Emit::Always;
    OptionsPredicate emit_if = nullptr; //!< JSON only while this holds
    IdPart id = {};
    OptionsPredicate warmup = nullptr; //!< shapes the warm-up while
                                       //!< this holds
    AxisSpec axis = {};
    /** Group switch that axis values (and, with flag_enables, the
        flag) turn on; the axis value "off" turns it off. */
    bool &(*enables)(RunOptions &) = nullptr;
    bool flag_enables = false;
    unsigned flag_shift = 0; //!< the flag counts in units of 2^shift
};

/** A table entry: the spec plus typed access to the member. */
struct OptionField : OptionSpec
{
    std::string metavar = {}; //!< value placeholder; "" = switch
    std::function<std::string(const RunOptions &)> format = {};
    std::function<CliError(RunOptions &, std::string_view)> parse = {};
    std::function<void(JsonWriter &, const RunOptions &)> write_json =
        {};

    bool isSwitch() const { return metavar.empty(); }

    /** Whether @p o holds this field's default value. */
    bool isDefault(const RunOptions &o) const;

    /** Apply the asdsim_cli flag; a switch flips off its default. */
    CliError applyFlag(RunOptions &o, std::string_view value) const;

    /** Apply one asdsweep axis value. */
    CliError applyAxisValue(RunOptions &o, std::string_view value) const;

    /** Whether writeJson(RunOptions) emits this field. */
    bool emitted(const RunOptions &o) const;
};

/** Every RunOptions field, in options-JSON order. */
const std::vector<OptionField> &runOptionFields();

/** What a run is besides its options. */
struct RunContext
{
    bool smt = false;      //!< two co-running copies of the trace
    bool snapshot = false; //!< a snapshot is saved or loaded
};

/**
 * The cross-field rules, in one place: the OS model excludes VM mode,
 * and only the OS model picks a page-table walker; the tuner and the
 * tenant mix need a single trace (no SMT),
 * as do snapshots; the tuner reconfigures ASD in MS or PMS.
 * @return the first rule broken, nullopt when valid.
 */
CliError validate(const RunOptions &options,
                  const RunContext &context = {});

/** The asdsim_cli flags, bound to @p target (which must outlive them). */
std::vector<CliFlag> runOptionFlags(RunOptions &target);

/** Job-id fragments of @p options, in id order. */
std::string jobIdSuffix(const RunOptions &options);

/** ";key=value" for every field that shapes the warm-up. */
std::string warmupFields(const RunOptions &options);

/** One asdsweep axis and the values it takes. */
struct SweepAxis
{
    const OptionField *field;
    std::vector<std::string> values;
};

/** Every declared axis at its default values, in nesting order. */
std::vector<SweepAxis> sweepAxes();

/**
 * The asdsweep axis flags, each filling one of @p axes; @p axes must
 * outlive the flags and keep its size.
 */
std::vector<CliFlag> sweepAxisFlags(std::vector<SweepAxis> &axes);

/**
 * The product of @p axes applied to @p base, outermost axis first.
 * An axis collapses where its expand_if is false; points that fail
 * validate() are skipped.
 */
std::vector<RunOptions> expandGrid(const RunOptions &base,
                                   const std::vector<SweepAxis> &axes);

} // namespace asd

#endif // ASD_SIM_RUN_OPTIONS_SCHEMA_HPP
