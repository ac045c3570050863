#include "arena/registry.hpp"

#include <cstdio>

namespace asd
{

namespace
{

PrefetcherInfo
memSide(McPrefetcherKind kind, const std::string &description)
{
    PrefetcherInfo info;
    info.name = toString(kind);
    info.side = PrefetcherSide::MemSide;
    info.description = description;
    info.defaults.mode = PrefetchMode::MS;
    info.defaults.mc_prefetcher = kind;
    return info;
}

PrefetcherInfo
cpuSide(PsKind kind, const std::string &description)
{
    PrefetcherInfo info;
    info.name = "ps-" + toString(kind);
    info.side = PrefetcherSide::CpuSide;
    info.description = description;
    info.defaults.mode = PrefetchMode::PS;
    info.defaults.ps_kind = kind;
    return info;
}

} // namespace

PrefetcherRegistry::PrefetcherRegistry()
{
    // Memory-side contenders: every McPrefetcherKind the System can
    // construct. test_arena pins this completeness, so extending the
    // enum without registering the newcomer fails the suite.
    entries_.push_back(memSide(
        McPrefetcherKind::Asd,
        "Adaptive Stream Detection (the paper's design)"));
    entries_.push_back(memSide(
        McPrefetcherKind::NextLine,
        "next-line on every read + adaptive scheduling"));
    entries_.push_back(memSide(
        McPrefetcherKind::P5Style,
        "Power5-style sequential streams in the controller"));
    entries_.push_back(memSide(
        McPrefetcherKind::Ghb,
        "Global History Buffer, address-correlating (G/AC)"));
    entries_.push_back(memSide(
        McPrefetcherKind::Stride,
        "Baer-Chen-style stride detection by delta matching"));
    entries_.push_back(memSide(
        McPrefetcherKind::Dspatch,
        "DSPatch-style dual spatial bit-patterns (CovP/AccP)"));
    entries_.push_back(memSide(
        McPrefetcherKind::Perceptron,
        "perceptron-filtered stream prefetching"));

    // Variant contenders: alternate configurations of the kinds
    // above, fielded under their own registry names.
    {
        PrefetcherInfo ghb_dc = memSide(
            McPrefetcherKind::Ghb,
            "Global History Buffer, delta-correlating (G/DC)");
        ghb_dc.name = "ghb-dc";
        ghb_dc.defaults.ghb_delta_correlate = true;
        entries_.push_back(std::move(ghb_dc));
    }
    {
        PrefetcherInfo tuned = memSide(
            McPrefetcherKind::Asd,
            "ASD under the phase-adaptive shadow tuner");
        tuned.name = "asd+tuner";
        tuned.defaults.tuner.enabled = true;
        entries_.push_back(std::move(tuned));
    }

    // CPU-side contenders.
    entries_.push_back(cpuSide(
        PsKind::Power5,
        "Power5-style processor-side stream prefetcher"));
    entries_.push_back(cpuSide(
        PsKind::Asd,
        "ASD transplanted to the processor side (section 6)"));
}

const PrefetcherRegistry &
PrefetcherRegistry::instance()
{
    static const PrefetcherRegistry registry;
    return registry;
}

const std::vector<PrefetcherInfo> &
PrefetcherRegistry::all() const
{
    return entries_;
}

const PrefetcherInfo *
PrefetcherRegistry::find(const std::string &name) const
{
    for (const PrefetcherInfo &info : entries_) {
        if (info.name == name)
            return &info;
    }
    return nullptr;
}

std::vector<std::string>
PrefetcherRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const PrefetcherInfo &info : entries_)
        out.push_back(info.name);
    return out;
}

std::vector<std::string>
PrefetcherRegistry::names(PrefetcherSide side) const
{
    std::vector<std::string> out;
    for (const PrefetcherInfo &info : entries_) {
        if (info.side == side)
            out.push_back(info.name);
    }
    return out;
}

void
PrefetcherRegistry::print() const
{
    for (const PrefetcherInfo &info : entries_)
        std::printf("%-12s %-9s %s\n", info.name.c_str(),
                    toString(info.side).c_str(), info.description.c_str());
}

} // namespace asd
