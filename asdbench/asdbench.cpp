/**
 * @file
 * asdbench: host time of the simulator, end to end and layer by layer,
 * on four named workloads (see README.md for why each exists).
 *
 * Every workload is a closed-loop batch: the simulator runs one trace,
 * or one bake-off grid, to completion with the modelled caches
 * starting empty, as in the paper's runs. Each workload has two
 * phases:
 *
 *  - timed (--trace 0): one discarded warm-up rep, then reps until
 *    --seconds have passed. Reports the median of each end-to-end
 *    metric with its min, max and rep count.
 *  - traced (--trace 1): untraced and traced reps alternate. A traced
 *    rep times calls into each layer's public functions from outside
 *    the simulator: a TraceSource wrapper, a memory-side prefetcher
 *    interposer, and the System loop hook. One split run goes through
 *    a midpoint snapshot, and standalone replays time the cache and
 *    OS layers, which have no seam inside the System.
 *
 * Every simulated run is an op. An op fails when it throws, when a
 * bake-off job ends with a status other than Ok, or when its
 * statistics fingerprint differs from the committed golden or from
 * the workload's other runs.
 *
 * The last line on stdout is one JSON object with the keys correct,
 * attempted, failed and metrics.
 */

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arena/bakeoff.hpp"
#include "cache/hierarchy.hpp"
#include "common/check.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "os/kernel.hpp"
#include "os/os_mmu.hpp"
#include "sim/experiment.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/synthetic.hpp"
#include "workloads/profiles.hpp"
#include "workloads/tenant_mix.hpp"

namespace
{

using namespace asd;
using Clock = std::chrono::steady_clock;

double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1
               ? values[mid]
               : (values[mid - 1] + values[mid]) / 2.0;
}

/** Nearest-rank percentile, @p p in (0, 1]. */
double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

/** @p num / @p den, or 0 when nothing was counted. */
double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// --- Metric names ----------------------------------------------------

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, reported by the timed phase. */
constexpr MetricSpec kEndToEnd[] = {
    {"sim_cycles_per_s", "1/s"}, {"accesses_per_s", "1/s"},
    {"run_s", "s"},              {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/**
 * Per-layer metrics, reported by the traced phase. A layer that is
 * not on a workload's path reports 0 (the runner layer on a single
 * run, the OS replay off os_tenants).
 */
constexpr MetricSpec kPerLayer[] = {
    {"sim.iterations", "count"},
    {"sim.ns_per_iter", "ns"},
    {"sim.skipped_cycle_frac", "frac"},
    {"sim.quiet_iter_frac", "frac"},
    {"tracing.overhead_frac", "frac"},
    {"tracing.clock_ns", "ns"},
    {"cpu.self_ns_per_iter", "ns"},
    {"cpu.mc_reject_frac", "frac"},
    {"cache.replay_ns_per_access", "ns"},
    {"cache.l1_miss_frac", "frac"},
    {"cache.l2_miss_frac", "frac"},
    {"cache.l3_miss_frac", "frac"},
    {"mc.self_ns_per_iter", "ns"},
    {"mc.read_q_mean", "count"},
    {"mc.write_q_mean", "count"},
    {"mc.caq_mean", "count"},
    {"mc.lpq_mean", "count"},
    {"dram.row_hit_frac", "frac"},
    {"dram.commands_per_kcycle", "1/kcycle"},
    {"core.observe_ns", "ns"},
    {"core.lookup_ns", "ns"},
    {"core.fill_ns", "ns"},
    {"core.tick_ns", "ns"},
    {"core.calls_per_iter", "count"},
    {"core.useful_frac", "frac"},
    {"core.coverage_frac", "frac"},
    {"core.lpq_drop_frac", "frac"},
    {"trace.next_ns", "ns"},
    {"os.replay_translate_ns", "ns"},
    {"os.faults_per_kacc", "1/kacc"},
    {"os.reclaims_per_kacc", "1/kacc"},
    {"os.tlb_miss_frac", "frac"},
    {"os.stall_cycle_frac", "frac"},
    {"os.replay_faults_per_kacc", "1/kacc"},
    {"os.replay_tlb_miss_frac", "frac"},
    {"snapshot.save_ms", "ms"},
    {"snapshot.load_ms", "ms"},
    {"snapshot.bytes", "bytes"},
    {"runner.jobs", "count"},
    {"runner.job_ms_p50", "ms"},
    {"runner.job_ms_p85", "ms"},
    {"runner.worker_busy_frac", "frac"},
    {"runner.warm_started_frac", "frac"},
    {"arena.overhead_ms", "ms"},
    {"prefetch.job_ms.np", "ms"},
    {"prefetch.job_ms.asd", "ms"},
    {"prefetch.job_ms.nextline", "ms"},
    {"prefetch.job_ms.p5", "ms"},
    {"prefetch.job_ms.ghb", "ms"},
    {"prefetch.job_ms.stride", "ms"},
    {"prefetch.job_ms.dspatch", "ms"},
    {"prefetch.job_ms.perceptron", "ms"},
    {"prefetch.job_ms.ghb-dc", "ms"},
    {"prefetch.job_ms.asd-tuner", "ms"},
    {"prefetch.job_ms.ps-power5", "ms"},
    {"prefetch.job_ms.ps-asd", "ms"},
    {"vm.job_ms_ratio", "ratio"},
};

using Values = std::map<std::string, double>;

// --- Workloads -------------------------------------------------------

/** One simulated run: a benchmark profile in one configuration. */
struct RunSpec
{
    Benchmark bench;
    RunOptions options;
};

struct Workload
{
    std::string name;
    std::string config; //!< one line for the report

    /**
     * The run a single-run workload times. For the bake-off, the one
     * grid job (bwaves under ASD, plain) whose traced run supplies
     * the per-layer split of a bake-off job.
     */
    RunSpec run;

    /** Set for the bake-off workload only. */
    std::optional<BakeoffOptions> bakeoff;
};

/**
 * The workloads in their fixed run order. @p seed, when set, replaces
 * every profile's trace seed and the tenant-mix seed; the bake-off
 * grid has no seed knob and always runs the profile seeds.
 */
std::vector<Workload>
makeWorkloads(std::optional<std::uint64_t> seed)
{
    const auto spec = [&](const char *bench, RunOptions options) {
        RunSpec run{findBenchmark(bench), std::move(options)};
        if (seed) {
            run.bench.trace.seed = *seed;
            run.options.tenants.seed = *seed;
        }
        return run;
    };

    std::vector<Workload> out;

    RunOptions stream;
    stream.mode = PrefetchMode::PMS;
    stream.accesses = 1'400'000;
    out.push_back({"spec_stream_pms", "bwaves, PMS (ASD + Power5 PS)",
                   spec("bwaves", stream), std::nullopt});

    RunOptions commercial;
    commercial.mode = PrefetchMode::NP;
    commercial.accesses = 700'000;
    out.push_back({"commercial_np", "tpcc, NP",
                   spec("tpcc", commercial), std::nullopt});

    RunOptions tenants;
    tenants.mode = PrefetchMode::PMS;
    tenants.accesses = 1'200'000;
    tenants.os.enabled = true;
    tenants.os.frames = 2048;
    tenants.vm.walker = PageWalkerKind::Hashed;
    tenants.tenants.enabled = true;
    tenants.tenants.slots = 8;
    out.push_back({"os_tenants",
                   "GemsFDTD, PMS, OS model (2048 frames, hashed "
                   "walker), 8 tenants",
                   spec("GemsFDTD", tenants), std::nullopt});

    BakeoffOptions bakeoff;
    bakeoff.suites = {};
    bakeoff.benchmarks = {"bwaves", "mg", "tpcc"};
    bakeoff.vm_axis = true;
    bakeoff.accesses = 120'000;
    bakeoff.warmup_cycles = 20'000;
    bakeoff.threads = 2;
    RunOptions representative =
        PrefetcherRegistry::instance().find("asd")->defaults;
    representative.accesses = bakeoff.accesses;
    representative.warmup_cycles = bakeoff.warmup_cycles;
    out.push_back({"bakeoff",
                   "BakeoffRunner: bwaves, mg, tpcc x {plain, +vm} x "
                   "every contender + NP, warm start, 2 threads",
                   RunSpec{findBenchmark("bwaves"), representative},
                   bakeoff});
    return out;
}

// --- Fingerprints and the golden -------------------------------------

/** FNV-1a, fed little-endian 64-bit words and length-prefixed text. */
class Fnv
{
  public:
    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (v >> (8 * i)) & 0xff;
            hash_ *= 0x100000001b3ULL;
        }
    }

    void
    str(const std::string &text)
    {
        u64(text.size());
        for (const char c : text) {
            hash_ ^= static_cast<unsigned char>(c);
            hash_ *= 0x100000001b3ULL;
        }
    }

    std::string
    hex() const
    {
        std::ostringstream out;
        out << std::hex << std::setw(16) << std::setfill('0') << hash_;
        return out.str();
    }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/**
 * A fixed field list, so the fingerprint stays put when RunMetrics
 * gains fields.
 */
std::string
fingerprint(const RunMetrics &m)
{
    Fnv fnv;
    for (const std::uint64_t v :
         {m.cycles, m.accesses, m.mc_reads, m.mc_writes,
          m.ms_prefetches_issued, m.buffer_hits, m.lpq_drops,
          m.tlb_hits, m.tlb_misses, m.os_minor_faults,
          m.os_major_faults, m.os_reclaims, m.tenant_arrivals,
          std::bit_cast<std::uint64_t>(m.dram_energy_mj)})
        fnv.u64(v);
    return fnv.hex();
}

std::string
fingerprint(const BakeoffResult &result)
{
    Fnv fnv;
    for (const BakeoffCell &cell : result.cells) {
        fnv.str(cell.workload);
        fnv.str(cell.prefetcher);
        fnv.u64(cell.metrics.cycles);
        fnv.u64(cell.baseline_cycles);
    }
    return fnv.hex();
}

/** Committed fingerprints: workload -> seed ("default" or N) -> hex. */
class Golden
{
  public:
    explicit Golden(std::string path) : path_(std::move(path)) {}

    /** @retval false when the file is missing or malformed. */
    bool
    load()
    {
        std::ifstream in(path_);
        if (!in)
            return false;
        std::ostringstream text;
        text << in.rdbuf();
        const auto doc = jsonParse(text.str());
        const JsonValue *prints = doc ? doc->find("fingerprints") : nullptr;
        if (!prints || prints->kind() != JsonValue::Kind::Object)
            return false;
        for (const auto &[workload, seeds] : prints->members()) {
            for (const auto &[seed, value] : seeds.members()) {
                const std::string *hex = value.asString();
                if (!hex)
                    return false;
                entries_[workload][seed] = *hex;
            }
        }
        return true;
    }

    const std::string *
    find(const std::string &workload, const std::string &seed) const
    {
        const auto w = entries_.find(workload);
        if (w == entries_.end())
            return nullptr;
        const auto s = w->second.find(seed);
        return s == w->second.end() ? nullptr : &s->second;
    }

    void
    set(const std::string &workload, const std::string &seed,
        const std::string &hex)
    {
        entries_[workload][seed] = hex;
    }

    void
    save() const
    {
        std::ofstream out(path_);
        if (!out)
            fatal("asdbench: cannot write " + path_);
        out << "{\n  \"schema\": \"asdbench/golden/v1\",\n"
            << "  \"fingerprints\": {";
        const char *wsep = "\n";
        for (const auto &[workload, seeds] : entries_) {
            out << wsep << "    \"" << jsonEscape(workload) << "\": {";
            const char *ssep = "\n";
            for (const auto &[seed, hex] : seeds) {
                out << ssep << "      \"" << jsonEscape(seed) << "\": \""
                    << hex << "\"";
                ssep = ",\n";
            }
            out << "\n    }";
            wsep = ",\n";
        }
        out << "\n  }\n}\n";
    }

  private:
    std::string path_;
    std::map<std::string, std::map<std::string, std::string>> entries_;
};

/** Counts ops and checks each run's fingerprint. */
class Ops
{
  public:
    /**
     * @param golden the committed fingerprint, when one applies
     *        (full scale, a seed the golden covers, not rewriting it).
     */
    Ops(std::string workload, const std::string *golden)
        : workload_(std::move(workload)),
          golden_(golden ? std::optional<std::string>(*golden)
                         : std::nullopt)
    {}

    /**
     * @retval true when @p print equals the golden and this workload's
     * first fingerprint (the first one seen becomes that reference).
     */
    bool
    matches(const std::string &print)
    {
        if (!first_)
            first_ = print;
        const bool ok =
            print == *first_ && (!golden_ || print == *golden_);
        if (!ok)
            std::cerr << "asdbench: " << workload_ << ": fingerprint "
                      << print << " differs (first " << *first_
                      << ", golden " << golden_.value_or("unchecked")
                      << ")\n";
        return ok;
    }

    /** One simulated run that produced @p print. */
    void
    check(const std::string &what, const std::string &print)
    {
        record(matches(print), what);
    }

    /** One op whose outcome is already known. */
    void
    record(bool ok, const std::string &what)
    {
        ++attempted_;
        if (!ok) {
            ++failed_;
            std::cerr << "asdbench: " << workload_ << ": FAILED " << what
                      << "\n";
        }
    }

    /** Count @p other's ops as this workload's. */
    void
    absorb(const Ops &other)
    {
        attempted_ += other.attempted_;
        failed_ += other.failed_;
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::optional<std::string> &first() const { return first_; }

  private:
    std::string workload_;
    std::optional<std::string> golden_;
    std::optional<std::string> first_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

// --- Building a machine ----------------------------------------------

/**
 * Calibrated cost of one steady_clock::now() in ns: the median over
 * batches of back-to-back reads. Subtracted once per timed span.
 */
double
calibrateClockNs()
{
    constexpr int kBatches = 31;
    constexpr int kReads = 1000;
    std::vector<double> per_read;
    for (int b = 0; b < kBatches; ++b) {
        const Clock::time_point start = Clock::now();
        Clock::time_point last = start;
        for (int i = 0; i < kReads; ++i)
            last = Clock::now();
        per_read.push_back(nsBetween(start, last) / kReads);
    }
    return median(per_read);
}

class Tracer;

/** Times TraceSource::next() on the traced iterations. */
class TracedSource : public TraceSource
{
  public:
    TracedSource(TraceSource &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {}

    bool next(MemAccess &out) override;
    void reset() override { inner_.reset(); }
    void saveState(SnapshotWriter &w) const override
    {
        inner_.saveState(w);
    }
    void loadState(SnapshotReader &r) override { inner_.loadState(r); }

  private:
    TraceSource &inner_;
    Tracer &tracer_;
};

/** A System and its trace source, built as runBenchmark builds them. */
struct Machine
{
    std::unique_ptr<TraceSource> source;
    std::unique_ptr<TracedSource> traced;
    TenantMixSource *mix = nullptr;
    std::unique_ptr<System> system;

    /** Metrics as runBenchmark returns them. */
    RunMetrics
    metrics() const
    {
        RunMetrics m = system->collectMetrics();
        if (mix) {
            m.tenants_enabled = true;
            m.tenant_arrivals = mix->arrivals();
            m.tenant_departures = mix->departures();
            m.tenant_active = mix->activeTenants();
        }
        return m;
    }
};

std::unique_ptr<TraceSource>
makeSource(const RunSpec &run)
{
    SyntheticConfig config = run.bench.trace;
    config.total_accesses = scaledAccesses(run.bench, run.options);
    if (run.options.tenants.enabled)
        return std::make_unique<TenantMixSource>(
            run.options.tenants, config, config.total_accesses);
    return std::make_unique<SyntheticTraceGenerator>(config);
}

/** @param tracer non-null to wrap the trace source for timing. */
Machine
buildMachine(const RunSpec &run, Tracer *tracer)
{
    Machine m;
    m.source = makeSource(run);
    m.mix = dynamic_cast<TenantMixSource *>(m.source.get());
    TraceSource *feed = m.source.get();
    if (tracer) {
        m.traced = std::make_unique<TracedSource>(*m.source, *tracer);
        feed = m.traced.get();
    }
    m.system = std::make_unique<System>(makeSystemConfig(run.options),
                                        std::vector<TraceSource *>{feed});
    return m;
}

/** The whole trace of @p run, as the System would read it. */
std::vector<MemAccess>
traceOf(const RunSpec &run)
{
    const std::unique_ptr<TraceSource> source = makeSource(run);
    std::vector<MemAccess> out;
    MemAccess access;
    while (source->next(access))
        out.push_back(access);
    return out;
}

// --- Tracing ---------------------------------------------------------

enum Span : std::uint8_t
{
    kIteration,
    kCpuHalf,
    kMcHalf,
    kTraceNext,
    kCoreObserve,
    kCoreLookup,
    kCoreFill,
    kCoreTick,
    kSpanCount,
};

constexpr std::array<const char *, kSpanCount> kSpanNames = {
    "iteration", "cpu",        "mc",        "trace.next",
    "core.observe", "core.lookup", "core.fill", "core.tick"};

/** One recorded span, kept for --trace-out. */
struct RawSpan
{
    Span span;
    std::uint64_t iteration;
    double start_ns; //!< since the tracer was built
    double end_ns;
};

/** Modelled counts of one traced run; identical on every rep. */
struct Model
{
    std::uint64_t iterations = 0;
    std::uint64_t quiet = 0;
    std::uint64_t core_calls = 0;
    std::uint64_t candidates = 0; //!< prefetch lines proposed
    double read_q = 0, write_q = 0, caq = 0, lpq = 0; //!< sums

    bool operator==(const Model &) const = default;
};

class CoreTap;

/**
 * The per-layer split of a traced run. Every iteration is counted;
 * every kSampleEvery-th is timed: the loop hook bounds it, the
 * interposer's tick() splits it into the cpu half (TraceCpu::tick with
 * its cache lookups, translation and MC enqueues) and the mc half
 * (completions, scheduling, DRAM issue, writeback drain, fast-forward
 * check), and the trace and prefetcher calls inside are nested spans.
 * Sums accumulate over every traced rep.
 */
class Tracer
{
  public:
    static constexpr std::uint64_t kSampleEvery = 61;
    static constexpr std::uint64_t kRawIterations = 4096;

    explicit Tracer(double clock_ns);
    ~Tracer();
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /**
     * Wire into @p m's System (loop hook + prefetcher interposer) for
     * one traced rep of @p run. @p keep_raw records spans for
     * --trace-out.
     */
    void attach(Machine &m, const RunSpec &run, bool keep_raw);

    /** The rep ended; an iteration still open is dropped. */
    void
    detach()
    {
        sampled_ = false;
    }

    /** Modelled counts of the rep attach() began. */
    const Model &model() const { return model_; }

    bool sampling() const { return sampled_; }
    void countFetch() { ++fetches_; }
    void countCoreCall() { ++model_.core_calls; }
    void countCandidates(std::size_t n) { model_.candidates += n; }

    /**
     * A nested span that ran from @p a to @p b. @p at_boundary: @p a
     * is also the mc half's start, so only one of its two clock reads
     * ran inside that half.
     */
    void record(Span span, Clock::time_point a, Clock::time_point b,
                bool at_boundary = false);

    /** The interposer's tick() began: the mc half starts at @p t. */
    void
    mcBoundary(Clock::time_point t)
    {
        boundary_ = t;
    }

    double sum(Span s) const { return sum_[s]; }
    std::uint64_t count(Span s) const { return count_[s]; }
    double cpuSelfNs() const { return cpu_self_; }
    double mcSelfNs() const { return mc_self_; }
    const std::vector<RawSpan> &raw() const { return raw_; }

  private:
    void onLoopTop();
    void
    add(Span span, double ns)
    {
        sum_[span] += ns;
        ++count_[span];
    }
    void keep(Span span, Clock::time_point a, Clock::time_point b);

    double clock_ns_;
    Clock::time_point epoch_ = Clock::now();
    const MemoryController *mc_ = nullptr;
    const Dram *dram_ = nullptr;
    std::unique_ptr<CoreTap> tap_;

    Model model_;
    std::uint64_t fetches_ = 0;
    bool prev_has_work_ = false;
    std::uint64_t prev_commands_ = 0, prev_accepted_ = 0,
                  prev_fetches_ = 0;

    bool sampled_ = false;
    bool keep_raw_ = false;
    std::uint64_t sampled_index_ = 0;
    Clock::time_point iter_start_;
    std::optional<Clock::time_point> boundary_;
    double cpu_nested_ = 0, mc_nested_ = 0;

    std::array<double, kSpanCount> sum_{};
    std::array<std::uint64_t, kSpanCount> count_{};
    double cpu_self_ = 0, mc_self_ = 0;
    std::vector<RawSpan> raw_;
};

/** RAII timer for one nested span on a traced iteration. */
class Scope
{
  public:
    Scope(Tracer &tracer, Span span)
        : tracer_(tracer), span_(span), on_(tracer.sampling())
    {
        if (on_)
            start_ = Clock::now();
    }
    ~Scope()
    {
        if (on_)
            tracer_.record(span_, start_, Clock::now());
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer_;
    Span span_;
    bool on_;
    Clock::time_point start_;
};

bool
TracedSource::next(MemAccess &out)
{
    tracer_.countFetch();
    const Scope scope(tracer_, kTraceNext);
    return inner_.next(out);
}

/**
 * Memory-side prefetcher interposer: forwards every call to the
 * System's ASD prefetcher and counts it. With none (NP) it proposes
 * nothing and never hits, which is what the controller does with no
 * prefetcher, and counts nothing.
 */
class CoreTap : public MemSidePrefetcher
{
  public:
    CoreTap(MemSidePrefetcher *inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {}

    std::vector<LineAddr>
    observeRead(LineAddr line, std::uint32_t thread, Cycle now) override
    {
        if (!forward())
            return {};
        const Scope scope(tracer_, kCoreObserve);
        std::vector<LineAddr> lines = inner_->observeRead(line, thread, now);
        tracer_.countCandidates(lines.size());
        return lines;
    }

    void
    observeWrite(LineAddr line, Cycle now) override
    {
        if (!forward())
            return;
        const Scope scope(tracer_, kCoreObserve);
        inner_->observeWrite(line, now);
    }

    bool
    lookupBuffer(LineAddr line) override
    {
        if (!forward())
            return false;
        const Scope scope(tracer_, kCoreLookup);
        return inner_->lookupBuffer(line);
    }

    bool
    bufferContains(LineAddr line) const override
    {
        return forward() && inner_->bufferContains(line);
    }

    void
    fillBuffer(LineAddr line, Cycle now) override
    {
        if (!forward())
            return;
        const Scope scope(tracer_, kCoreFill);
        inner_->fillBuffer(line, now);
    }

    int
    schedulingPolicy() const override
    {
        return forward() ? inner_->schedulingPolicy() : 1;
    }

    void
    notifyPrefetchConflict(Cycle now) override
    {
        if (forward())
            inner_->notifyPrefetchConflict(now);
    }

    /** First call of MemoryController::tick: the mc half begins. */
    void
    tick(Cycle now) override
    {
        if (!tracer_.sampling()) {
            if (forward())
                inner_->tick(now);
            return;
        }
        const Clock::time_point start = Clock::now();
        tracer_.mcBoundary(start);
        if (forward()) {
            inner_->tick(now);
            tracer_.record(kCoreTick, start, Clock::now(), true);
        }
    }

    // The System checkpoints its own prefetcher; the tap has no state.
    void saveState(SnapshotWriter &) const override {}
    void loadState(SnapshotReader &) override {}

  private:
    /** @retval true when a prefetcher takes the call (counted). */
    bool
    forward() const
    {
        if (inner_)
            tracer_.countCoreCall();
        return inner_ != nullptr;
    }

    MemSidePrefetcher *inner_;
    Tracer &tracer_;
};

Tracer::Tracer(double clock_ns) : clock_ns_(clock_ns) {}

Tracer::~Tracer() = default;

void
Tracer::attach(Machine &m, const RunSpec &run, bool keep_raw)
{
    System &system = *m.system;
    // The tap forwards to ASD or to nothing; interposing on another
    // memory-side prefetcher would silently detach it.
    if (makeSystemConfig(run.options).hasMs() && !system.asd())
        fatal("asdbench: traced runs need ASD or no memory-side "
              "prefetcher");
    mc_ = &system.mc();
    dram_ = &system.dram();
    tap_ = std::make_unique<CoreTap>(system.asd(), *this);
    system.mc().attachPrefetcher(tap_.get());
    system.setLoopHook([this](Cycle) { onLoopTop(); });

    model_ = Model{};
    fetches_ = 0;
    prev_has_work_ = false;
    prev_commands_ = prev_accepted_ = prev_fetches_ = 0;
    sampled_ = false;
    keep_raw_ = keep_raw;
    sampled_index_ = 0;
}

void
Tracer::keep(Span span, Clock::time_point a, Clock::time_point b)
{
    if (keep_raw_ && sampled_index_ < kRawIterations)
        raw_.push_back({span, sampled_index_, nsBetween(epoch_, a),
                        nsBetween(epoch_, b)});
}

void
Tracer::record(Span span, Clock::time_point a, Clock::time_point b,
               bool at_boundary)
{
    // A span's reading holds its work plus one clock read; the other
    // read of the pair also ran inside the enclosing half, unless it
    // is that half's own start.
    const double ns = nsBetween(a, b);
    add(span, ns - clock_ns_);
    (boundary_ ? mc_nested_ : cpu_nested_) +=
        at_boundary ? ns : ns + clock_ns_;
    keep(span, a, b);
}

void
Tracer::onLoopTop()
{
    if (sampled_) {
        const Clock::time_point end = Clock::now();
        add(kIteration, nsBetween(iter_start_, end) - clock_ns_);
        keep(kIteration, iter_start_, end);
        // Iterations before the prefetcher arms have no tick() and so
        // no split; they count only toward the iteration total.
        if (boundary_) {
            const double cpu = nsBetween(iter_start_, *boundary_) - clock_ns_;
            const double mc = nsBetween(*boundary_, end) - clock_ns_;
            add(kCpuHalf, cpu);
            add(kMcHalf, mc);
            cpu_self_ += cpu - cpu_nested_;
            mc_self_ += mc - mc_nested_;
            keep(kCpuHalf, iter_start_, *boundary_);
            keep(kMcHalf, *boundary_, end);
        }
        ++sampled_index_;
    }

    // Modelled per-iteration sampling, on every iteration. An
    // iteration is quiet when the MC held work but issued no DRAM
    // command, accepted no read or write, and no record was fetched.
    const std::uint64_t commands = dram_->reads() + dram_->writes();
    const std::uint64_t accepted =
        mc_->readsObserved() + mc_->writesObserved();
    if (model_.iterations > 0 && prev_has_work_ &&
        commands == prev_commands_ && accepted == prev_accepted_ &&
        fetches_ == prev_fetches_)
        ++model_.quiet;
    prev_has_work_ = mc_->hasWork();
    prev_commands_ = commands;
    prev_accepted_ = accepted;
    prev_fetches_ = fetches_;
    model_.read_q += static_cast<double>(mc_->readQOccupancy());
    model_.write_q += static_cast<double>(mc_->writeQOccupancy());
    model_.caq += static_cast<double>(mc_->caqOccupancy());
    model_.lpq += static_cast<double>(mc_->lpqOccupancy());
    ++model_.iterations;

    sampled_ = model_.iterations % kSampleEvery == 0;
    if (sampled_) {
        boundary_.reset();
        cpu_nested_ = mc_nested_ = 0;
        iter_start_ = Clock::now();
    }
}

// --- Options ---------------------------------------------------------

struct Args
{
    std::optional<std::string> workload;
    std::optional<std::uint64_t> seed;
    double seconds = 15.0; //!< per phase; BENCHMARK.json's run_seconds
    std::optional<int> trace; //!< unset = both phases
    std::string out;
    std::string trace_out;
    bool write_golden = false;
};

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "asdbench: " << error << "\n"
              << "usage: asdbench [--workload NAME] [--seed N] "
                 "[--seconds S] [--trace 0|1]\n"
                 "                [--out PATH] [--trace-out PATH] "
                 "[--write-golden]\n"
                 "workloads: spec_stream_pms commercial_np os_tenants "
                 "bakeoff (default: all, in that order)\n";
    std::exit(2);
}

std::uint64_t
parseU64(const std::string &flag, const std::string &text)
{
    std::size_t used = 0;
    try {
        if (!text.empty() && text[0] != '-') {
            const unsigned long long v = std::stoull(text, &used, 10);
            if (used == text.size())
                return v;
        }
    } catch (const std::exception &) {
    }
    usage(flag + " needs a non-negative integer, got '" + text + "'");
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(flag + " needs a value");
            return argv[++i];
        };
        if (flag == "--workload") {
            args.workload = value();
        } else if (flag == "--seed") {
            args.seed = parseU64(flag, value());
        } else if (flag == "--seconds") {
            const std::string text = value();
            char *end = nullptr;
            args.seconds = std::strtod(text.c_str(), &end);
            if (text.empty() || *end != '\0' ||
                !std::isfinite(args.seconds) || args.seconds < 0 ||
                args.seconds > 3600)
                usage("--seconds needs a number in [0, 3600], got '" +
                      text + "'");
        } else if (flag == "--trace") {
            const std::string text = value();
            if (text != "0" && text != "1")
                usage("--trace takes 0 or 1, got '" + text + "'");
            args.trace = text == "1";
        } else if (flag == "--out") {
            args.out = value();
        } else if (flag == "--trace-out") {
            args.trace_out = value();
        } else if (flag == "--write-golden") {
            args.write_golden = true;
        } else {
            usage("unknown argument '" + flag + "'");
        }
    }
    return args;
}

// --- Build provenance ------------------------------------------------

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

/** Why this process must not report timings; empty when it may. */
std::string
refusalReason()
{
    if (checksEnabled())
        return "cross-component checks are on (ASD_CHECK)";
#if !defined(__OPTIMIZE__)
    return "the build is not optimized";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    ASDBENCH_SANITIZED
    return "the build carries a sanitizer";
#endif
    const std::string type = ASDBENCH_BUILD_TYPE;
    if (type != "Release" && type != "RelWithDebInfo")
        return "build type '" + type + "' is not Release or RelWithDebInfo";
    return "";
}

/** Peak resident set (VmHWM) in MB; 0 when /proc is unavailable. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

/** Restart the VmHWM count from the current resident set. */
void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

// --- The timed phase -------------------------------------------------

/** Samples of the end-to-end metrics by name; peak RSS is one reading. */
struct Samples
{
    std::map<std::string, std::vector<double>> reps;
    double peak_rss_mb = 0.0;
};

constexpr int kMinReps = 3;

/** Runs reps of @p rep until @p seconds passed and kMinReps ran. */
template <typename Rep>
void
repeatFor(double seconds, Rep &&rep)
{
    const Clock::time_point start = Clock::now();
    for (int n = 0;
         n < kMinReps || secondsBetween(start, Clock::now()) < seconds;
         ++n)
        rep();
}

/**
 * Set-up takes micro- to milliseconds, so it is sampled many times.
 * Each build is torn down, untimed, before the next, so every sample
 * reuses warm heap pages as a rep does; keeping builds alive instead
 * makes samples pay for fresh pages some of the time and not others.
 */
constexpr std::size_t kSetupSamples = 101;

template <typename Build>
std::vector<double>
setupSamples(Build &&build)
{
    std::vector<double> out;
    for (std::size_t i = 0; i < kSetupSamples; ++i) {
        const Clock::time_point start = Clock::now();
        const auto built = build();
        out.push_back(secondsBetween(start, Clock::now()));
    }
    return out;
}

/** What one timed rep did. */
struct Work
{
    double run_s;
    double cycles;
    double accesses;
};

/**
 * The timed phase: a discarded warm-up rep, timed reps, then set-up
 * alone. @p build sets up one rep; @p run(built, what) runs and checks
 * it, timing only the run.
 */
template <typename Build, typename Run>
Samples
timePhase(double seconds, Build &&build, Run &&run)
{
    Samples s;
    const auto rep = [&](bool keep) {
        auto built = build();
        const Work work = run(built, keep ? "timed rep" : "warm-up rep");
        if (!keep)
            return;
        s.reps["run_s"].push_back(work.run_s);
        s.reps["sim_cycles_per_s"].push_back(work.cycles / work.run_s);
        s.reps["accesses_per_s"].push_back(work.accesses / work.run_s);
    };
    rep(false);
    repeatFor(seconds, [&] { rep(true); });
    s.peak_rss_mb = peakRssMb();
    s.reps["setup_s"] = setupSamples(build);
    return s;
}

Samples
timeSingle(const Workload &w, double seconds, Ops &ops)
{
    return timePhase(
        seconds, [&] { return buildMachine(w.run, nullptr); },
        [&](Machine &m, const char *what) {
            const Clock::time_point start = Clock::now();
            m.system->run();
            const double run_s = secondsBetween(start, Clock::now());
            const RunMetrics metrics = m.metrics();
            ops.check(what, fingerprint(metrics));
            return Work{run_s, static_cast<double>(metrics.cycles),
                        static_cast<double>(metrics.accesses)};
        });
}

/** Σ cycles and Σ retired accesses over every job of a bake-off. */
std::pair<double, double>
bakeoffWork(const BakeoffResult &result)
{
    // NP baselines appear only as each cell's baseline_cycles; they
    // retire the same trace as the workload's contenders.
    double cycles = 0, accesses = 0;
    std::string last_workload;
    for (const BakeoffCell &cell : result.cells) {
        cycles += static_cast<double>(cell.metrics.cycles);
        accesses += static_cast<double>(cell.metrics.accesses);
        if (cell.workload != last_workload) {
            cycles += static_cast<double>(cell.baseline_cycles);
            accesses += static_cast<double>(cell.metrics.accesses);
            last_workload = cell.workload;
        }
    }
    return {cycles, accesses};
}

/**
 * One BakeoffRunner::run as ops, one per job: a job fails on a status
 * other than Ok, and every job fails when the grid's fingerprint moved.
 */
void
checkBakeoff(const BakeoffResult &result, Ops &ops, const char *what)
{
    const std::size_t bad =
        ops.matches(fingerprint(result))
            ? result.summary.failed + result.summary.timed_out
            : result.total_jobs;
    for (std::size_t i = 0; i < result.total_jobs; ++i)
        ops.record(i >= bad, std::string(what) + " job");
}

Samples
timeBakeoff(const Workload &w, double seconds, Ops &ops)
{
    return timePhase(
        seconds, [&] { return BakeoffRunner(*w.bakeoff); },
        [&](BakeoffRunner &runner, const char *what) {
            const Clock::time_point start = Clock::now();
            const BakeoffResult result = runner.run();
            const double run_s = secondsBetween(start, Clock::now());
            checkBakeoff(result, ops, what);
            const auto [cycles, accesses] = bakeoffWork(result);
            return Work{run_s, cycles, accesses};
        });
}

// --- The traced phase ------------------------------------------------

/** Per-layer values of a single run's traced phase. */
Values
traceSingle(const Workload &w, double seconds, int min_pairs, Ops &ops,
            double clock_ns, bool keep_raw, std::vector<RawSpan> &raw)
{
    Tracer tracer(clock_ns);
    std::vector<double> untraced_s, traced_s;
    RunMetrics metrics;
    std::optional<Model> model;
    Values v;

    const auto untraced = [&](const char *what) {
        Machine m = buildMachine(w.run, nullptr);
        const Clock::time_point t0 = Clock::now();
        m.system->run();
        const double run = secondsBetween(t0, Clock::now());
        metrics = m.metrics();
        ops.check(what, fingerprint(metrics));
        return run;
    };
    const auto traced = [&] {
        Machine m = buildMachine(w.run, &tracer);
        tracer.attach(m, w.run, keep_raw && traced_s.empty());
        const Clock::time_point t0 = Clock::now();
        m.system->run();
        traced_s.push_back(secondsBetween(t0, Clock::now()));
        tracer.detach();
        const RunMetrics traced_metrics = m.metrics();
        ops.check("traced run", fingerprint(traced_metrics));
        if (model && !(*model == tracer.model()))
            ops.record(false, "traced run's modelled counts moved");
        model = tracer.model();

        // Modelled layer state, read from the finished machine.
        const System &sys = *m.system;
        const auto miss = [](const SetAssocCache &c) {
            return ratio(static_cast<double>(c.misses()),
                         static_cast<double>(c.hits() + c.misses()));
        };
        v["cache.l1_miss_frac"] = miss(sys.hierarchy().l1());
        v["cache.l2_miss_frac"] = miss(sys.hierarchy().l2());
        v["cache.l3_miss_frac"] = miss(sys.hierarchy().l3());
        const Dram &dram = sys.dram();
        v["dram.row_hit_frac"] =
            ratio(static_cast<double>(dram.rowHits()),
                  static_cast<double>(dram.rowHits() + dram.rowMisses()));
        v["dram.commands_per_kcycle"] =
            ratio(1000.0 * static_cast<double>(dram.reads() + dram.writes()),
                  static_cast<double>(traced_metrics.cycles));
        v["cpu.mc_reject_frac"] =
            ratio(static_cast<double>(
                      sys.stats().value("cpu.t0.mc_reject_cycles")),
                  static_cast<double>(traced_metrics.cycles));
    };

    untraced("warm-up rep");
    const Clock::time_point start = Clock::now();
    while (static_cast<int>(traced_s.size()) < min_pairs ||
           secondsBetween(start, Clock::now()) < seconds) {
        untraced_s.push_back(untraced("untraced rep"));
        traced();
    }

    // Split run: snapshot at half the cycles, restore into a fresh
    // machine, finish; must equal the straight run.
    Machine first = buildMachine(w.run, nullptr);
    first.system->runUntil(metrics.cycles / 2);
    const Clock::time_point s0 = Clock::now();
    SnapshotWriter writer;
    first.system->saveSnapshot(writer);
    const std::vector<std::uint8_t> bytes = writer.finish(0);
    const Clock::time_point s1 = Clock::now();
    Machine second = buildMachine(w.run, nullptr);
    const Clock::time_point l0 = Clock::now();
    SnapshotReader reader(bytes);
    second.system->loadSnapshot(reader);
    const Clock::time_point l1 = Clock::now();
    second.system->runUntil(kNoCycle);
    ops.check("split run", fingerprint(second.metrics()));
    v["snapshot.save_ms"] = nsBetween(s0, s1) / 1e6;
    v["snapshot.load_ms"] = nsBetween(l0, l1) / 1e6;
    v["snapshot.bytes"] = static_cast<double>(bytes.size());

    // Standalone replays of layers with no seam inside the System.
    const std::vector<MemAccess> trace = traceOf(w.run);
    const SystemConfig config = makeSystemConfig(w.run.options);
    {
        CacheHierarchy caches(config.hierarchy);
        const std::uint32_t line_bytes = config.cpu.line_bytes;
        const Clock::time_point r0 = Clock::now();
        std::size_t n = 0;
        for (const MemAccess &a : trace) {
            const bool store = a.op == MemOp::Write;
            const LineAddr line = a.addr / line_bytes;
            if (caches.access(line, store).needs_memory)
                caches.fill(line, store);
            if (++n % 64 == 0)
                caches.drainWritebacks();
        }
        v["cache.replay_ns_per_access"] =
            ratio(nsBetween(r0, Clock::now()),
                  static_cast<double>(trace.size()));
    }
    if (w.run.options.os.enabled) {
        OsKernel kernel(w.run.options.os, w.run.options.vm);
        OsMmu mmu(w.run.options.vm, kernel, 0);
        Cycles stall = 0;
        const Clock::time_point r0 = Clock::now();
        for (const MemAccess &a : trace)
            mmu.translate(a, stall);
        const double n = static_cast<double>(trace.size());
        v["os.replay_translate_ns"] = ratio(nsBetween(r0, Clock::now()), n);
        v["os.replay_faults_per_kacc"] = ratio(
            1000.0 * static_cast<double>(kernel.minorFaults() +
                                         kernel.majorFaults()),
            n);
        v["os.replay_tlb_miss_frac"] =
            ratio(static_cast<double>(mmu.tlb().misses()),
                  static_cast<double>(mmu.tlb().hits() +
                                      mmu.tlb().misses()));
    }

    const Model &mod = *model;
    const double iters = static_cast<double>(mod.iterations);
    const double cycles = static_cast<double>(metrics.cycles);
    const double accesses = static_cast<double>(metrics.accesses);
    v["sim.iterations"] = iters;
    v["sim.ns_per_iter"] = ratio(median(untraced_s) * 1e9, iters);
    v["sim.skipped_cycle_frac"] = ratio(cycles - iters, cycles);
    v["sim.quiet_iter_frac"] = ratio(static_cast<double>(mod.quiet), iters);
    v["tracing.overhead_frac"] =
        ratio(median(traced_s), median(untraced_s)) - 1.0;
    v["tracing.clock_ns"] = clock_ns;
    const auto mean = [&](Span s) {
        return ratio(tracer.sum(s), static_cast<double>(tracer.count(s)));
    };
    const double split = static_cast<double>(tracer.count(kCpuHalf));
    v["cpu.self_ns_per_iter"] = ratio(tracer.cpuSelfNs(), split);
    v["mc.self_ns_per_iter"] = ratio(tracer.mcSelfNs(), split);
    v["mc.read_q_mean"] = ratio(mod.read_q, iters);
    v["mc.write_q_mean"] = ratio(mod.write_q, iters);
    v["mc.caq_mean"] = ratio(mod.caq, iters);
    v["mc.lpq_mean"] = ratio(mod.lpq, iters);
    v["core.observe_ns"] = mean(kCoreObserve);
    v["core.lookup_ns"] = mean(kCoreLookup);
    v["core.fill_ns"] = mean(kCoreFill);
    v["core.tick_ns"] = mean(kCoreTick);
    v["core.calls_per_iter"] =
        ratio(static_cast<double>(mod.core_calls), iters);
    v["core.useful_frac"] = metrics.useful_prefetch_pct / 100.0;
    v["core.coverage_frac"] = metrics.coverage_pct / 100.0;
    v["core.lpq_drop_frac"] = ratio(static_cast<double>(metrics.lpq_drops),
                                    static_cast<double>(mod.candidates));
    v["trace.next_ns"] = mean(kTraceNext);
    v["os.faults_per_kacc"] = ratio(
        1000.0 * static_cast<double>(metrics.os_minor_faults +
                                     metrics.os_major_faults),
        accesses);
    v["os.reclaims_per_kacc"] =
        ratio(1000.0 * static_cast<double>(metrics.os_reclaims), accesses);
    v["os.tlb_miss_frac"] =
        ratio(static_cast<double>(metrics.tlb_misses),
              static_cast<double>(metrics.tlb_hits + metrics.tlb_misses));
    v["os.stall_cycle_frac"] =
        ratio(static_cast<double>(metrics.os_stall_cycles), cycles);

    raw = tracer.raw();
    return v;
}

/** Registry name of each bake-off job id, and whether it ran +vm. */
struct JobKind
{
    std::string contender;
    bool vm = false;
};

/**
 * Rebuild the bake-off's job ids. BakeoffRunner overlays the grid's
 * workload knobs on each registry entry's defaults the same way.
 */
std::map<std::string, JobKind>
bakeoffJobKinds(const BakeoffOptions &options)
{
    std::map<std::string, JobKind> out;
    const auto add = [&](const Benchmark &bench, RunOptions o,
                         const std::string &name, bool vm) {
        o.accesses = options.accesses;
        o.warmup_cycles = options.warmup_cycles;
        if (vm) {
            o.vm.enabled = true;
            o.vm.policy = FrameAllocPolicy::RandomShuffle;
        }
        out[makeJobId(bench, o)] = {name, vm};
    };
    for (const bool vm : {false, true}) {
        for (const std::string &name : options.benchmarks) {
            const Benchmark &bench = findBenchmark(name);
            RunOptions np;
            np.mode = PrefetchMode::NP;
            add(bench, np, "np", vm);
            for (const PrefetcherInfo &info :
                 PrefetcherRegistry::instance().all())
                add(bench, info.defaults, info.name, vm);
        }
    }
    return out;
}

/**
 * Per-layer values of the bake-off, from per-job progress records.
 * @p job_print is the fingerprint of the representative job's own
 * runs; the grid's cell for that job must match it.
 */
Values
traceBakeoff(const Workload &w, double seconds,
             const std::string &job_print, Ops &ops)
{
    const std::map<std::string, JobKind> kinds =
        bakeoffJobKinds(*w.bakeoff);
    std::vector<double> job_ms, overhead_ms;
    std::map<std::string, std::vector<double>> by_contender;
    std::vector<double> plain_ms, vm_ms;
    double busy_ms = 0, capacity_ms = 0;
    std::size_t jobs = 0, warm = 0, total_jobs = 0;

    const auto rep = [&] {
        BakeoffOptions options = *w.bakeoff;
        options.on_progress = [&](const SweepProgress &p) {
            const auto kind = kinds.find(p.last_id);
            if (kind == kinds.end())
                fatal("asdbench: bake-off job " + p.last_id +
                      " matches no registered contender");
            job_ms.push_back(p.last_wall_ms);
            by_contender[kind->second.contender].push_back(p.last_wall_ms);
            (kind->second.vm ? vm_ms : plain_ms).push_back(p.last_wall_ms);
            busy_ms += p.last_wall_ms;
        };
        BakeoffRunner runner(options);
        const Clock::time_point t0 = Clock::now();
        const BakeoffResult result = runner.run();
        const double run_ms = nsBetween(t0, Clock::now()) / 1e6;
        checkBakeoff(result, ops, "traced rep");
        const std::string label = "extra/" + w.run.bench.name;
        const auto cell = std::find_if(
            result.cells.begin(), result.cells.end(),
            [&](const BakeoffCell &c) {
                return c.workload == label && c.prefetcher == "asd";
            });
        ops.record(cell != result.cells.end() &&
                       fingerprint(cell->metrics) == job_print,
                   "representative job against its grid cell");
        overhead_ms.push_back(run_ms - result.summary.wall_ms);
        capacity_ms += result.summary.threads * result.summary.wall_ms;
        jobs += result.summary.jobs;
        warm += result.summary.warm_started;
        total_jobs = result.total_jobs;
    };
    repeatFor(seconds, rep);

    Values v;
    v["runner.jobs"] = static_cast<double>(total_jobs);
    v["runner.job_ms_p50"] = percentile(job_ms, 0.50);
    v["runner.job_ms_p85"] = percentile(job_ms, 0.85);
    v["runner.worker_busy_frac"] = ratio(busy_ms, capacity_ms);
    v["runner.warm_started_frac"] =
        ratio(static_cast<double>(warm), static_cast<double>(jobs));
    v["arena.overhead_ms"] = median(overhead_ms);
    for (const auto &[contender, walls] : by_contender) {
        std::string name = contender;
        std::replace(name.begin(), name.end(), '+', '-');
        v["prefetch.job_ms." + name] = median(walls);
    }
    v["vm.job_ms_ratio"] = ratio(median(vm_ms), median(plain_ms));
    return v;
}

// --- Reporting -------------------------------------------------------

struct Report
{
    std::string workload;
    std::uint64_t accesses = 0; //!< per run, after ASD_BENCH_SCALE
    std::optional<Samples> timed;
    std::optional<Values> layers;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string fingerprint;
};

/** The end-to-end medians of @p s, keyed like kEndToEnd. */
Values
endToEnd(const Samples &s)
{
    Values v{{"peak_rss_mb", s.peak_rss_mb}};
    for (const auto &[name, xs] : s.reps)
        v[name] = median(xs);
    return v;
}

void
printReport(const Report &r)
{
    std::cout << std::setprecision(6);
    if (r.timed) {
        const Values e2e = endToEnd(*r.timed);
        std::cout << "  end to end (host time; median, min, max, n):\n";
        for (const MetricSpec &m : kEndToEnd) {
            std::cout << "    " << std::left << std::setw(28) << m.name
                      << std::right << std::setw(14) << e2e.at(m.name)
                      << " " << std::left << std::setw(6) << m.unit
                      << std::right;
            if (const auto it = r.timed->reps.find(m.name);
                it != r.timed->reps.end())
                std::cout << "  min "
                          << *std::min_element(it->second.begin(),
                                               it->second.end())
                          << "  max "
                          << *std::max_element(it->second.begin(),
                                               it->second.end())
                          << "  n " << it->second.size();
            std::cout << "\n";
        }
    }
    if (r.layers) {
        std::cout << "  per layer (traced run, 1 in "
                  << Tracer::kSampleEvery << " iterations timed):\n";
        for (const MetricSpec &m : kPerLayer)
            std::cout << "    " << std::left << std::setw(28) << m.name
                      << std::right << std::setw(14)
                      << r.layers->at(m.name) << " " << m.unit << "\n";
    }
    std::cout << "  ops " << r.attempted << " attempted, " << r.failed
              << " failed; fingerprint " << r.fingerprint << "\n";
}

void
writeMetrics(JsonWriter &out, const Values &values,
             const std::string &prefix, const MetricSpec *begin,
             const MetricSpec *end)
{
    for (const MetricSpec *m = begin; m != end; ++m) {
        out.key(prefix + m->name).beginObject();
        out.key("value").value(values.at(m->name));
        out.key("unit").value(m->unit);
        out.endObject();
    }
}

void
writeReportFile(const std::string &path, const Args &args,
                const std::vector<Report> &reports)
{
    JsonWriter out;
    out.beginObject();
    out.key("schema").value("asdbench/v1");
    out.key("build").beginObject();
    out.key("type").value(ASDBENCH_BUILD_TYPE);
    out.key("compiler").value(compilerName());
    out.key("nproc").value(std::thread::hardware_concurrency());
    out.endObject();
    out.key("seed");
    if (args.seed)
        out.value(*args.seed);
    else
        out.value("default");
    out.key("bench_scale").value(benchScale());
    out.key("seconds").value(args.seconds);
    out.key("workloads").beginArray();
    for (const Report &r : reports) {
        out.beginObject();
        out.key("name").value(r.workload);
        out.key("accesses").value(r.accesses);
        out.key("attempted").value(r.attempted);
        out.key("failed").value(r.failed);
        out.key("fingerprint").value(r.fingerprint);
        if (r.timed) {
            const Values e2e = endToEnd(*r.timed);
            out.key("end_to_end").beginObject();
            for (const MetricSpec &m : kEndToEnd) {
                out.key(m.name).beginObject();
                out.key("median").value(e2e.at(m.name));
                out.key("unit").value(m.unit);
                if (const auto it = r.timed->reps.find(m.name);
                    it != r.timed->reps.end()) {
                    const std::vector<double> &xs = it->second;
                    out.key("min").value(
                        *std::min_element(xs.begin(), xs.end()));
                    out.key("max").value(
                        *std::max_element(xs.begin(), xs.end()));
                    out.key("n").value(
                        static_cast<std::uint64_t>(xs.size()));
                }
                out.endObject();
            }
            out.endObject();
        }
        if (r.layers) {
            out.key("per_layer").beginObject();
            writeMetrics(out, *r.layers, "", std::begin(kPerLayer),
                         std::end(kPerLayer));
            out.endObject();
        }
        out.endObject();
    }
    out.endArray();
    out.endObject();
    std::ofstream file(path);
    if (!file)
        fatal("asdbench: cannot write " + path);
    file << out.str() << "\n";
}

/** Chrome trace-event JSON of the raw spans, one thread per workload. */
void
writeChromeTrace(const std::string &path,
                 const std::vector<std::pair<std::string,
                                             std::vector<RawSpan>>> &spans)
{
    JsonWriter out;
    out.beginObject();
    out.key("traceEvents").beginArray();
    for (std::size_t t = 0; t < spans.size(); ++t) {
        const auto tid = static_cast<std::uint64_t>(t + 1);
        out.beginObject();
        out.key("name").value("thread_name");
        out.key("ph").value("M");
        out.key("pid").value(1);
        out.key("tid").value(tid);
        out.key("args").beginObject();
        out.key("name").value(spans[t].first);
        out.endObject();
        out.endObject();
        for (const RawSpan &s : spans[t].second) {
            out.beginObject();
            out.key("name").value(kSpanNames[s.span]);
            out.key("ph").value("X");
            out.key("pid").value(1);
            out.key("tid").value(tid);
            out.key("ts").value(s.start_ns / 1000.0);
            out.key("dur").value((s.end_ns - s.start_ns) / 1000.0);
            out.key("args").beginObject();
            out.key("iteration").value(s.iteration);
            out.endObject();
            out.endObject();
        }
    }
    out.endArray();
    out.key("displayTimeUnit").value("ns");
    out.endObject();
    std::ofstream file(path);
    if (!file)
        fatal("asdbench: cannot write " + path);
    file << out.str() << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);

    if (const std::string why = refusalReason(); !why.empty()) {
        std::cerr << "asdbench: refusing to report timings: " << why
                  << "\n";
        return 2;
    }

    std::vector<Workload> workloads = makeWorkloads(args.seed);
    if (args.workload) {
        std::erase_if(workloads, [&](const Workload &w) {
            return w.name != *args.workload;
        });
        if (workloads.empty())
            usage("unknown workload '" + *args.workload + "'");
    }

    // Fingerprints are pinned at full scale only; a downscaled run
    // still checks that its runs agree with each other.
    const bool full_scale = benchScale() == 1.0;
    Golden golden(ASDBENCH_GOLDEN);
    if (!golden.load() && !args.write_golden) {
        std::cerr << "asdbench: cannot read the golden "
                  << ASDBENCH_GOLDEN << "\n";
        return 2;
    }
    if (args.write_golden && !full_scale)
        usage("--write-golden needs ASD_BENCH_SCALE unset");
    const std::string seed_key =
        args.seed ? std::to_string(*args.seed) : "default";

    const bool timed = !args.trace || *args.trace == 0;
    const bool traced = !args.trace || *args.trace == 1;
    const double clock_ns = calibrateClockNs();

    std::cout << "asdbench: build " << ASDBENCH_BUILD_TYPE << ", "
              << compilerName() << ", nproc "
              << std::thread::hardware_concurrency() << ", seed "
              << seed_key << ", scale " << benchScale() << ", "
              << args.seconds << " s per phase\n";

    std::vector<Report> reports;
    std::vector<std::pair<std::string, std::vector<RawSpan>>> spans;
    for (const Workload &w : workloads) {
        // The bake-off grid runs the profile seeds whatever --seed is.
        const std::string key = w.bakeoff ? "default" : seed_key;
        const std::string *pinned =
            full_scale && !args.write_golden ? golden.find(w.name, key)
                                             : nullptr;
        Ops ops(w.name, pinned);
        Report r;
        r.workload = w.name;
        r.accesses = scaledAccesses(w.run.bench, w.run.options);
        std::cout << "\n" << w.name << ": " << w.config << ", "
                  << r.accesses << " accesses per run\n";

        try {
            if (timed) {
                resetPeakRss();
                r.timed = w.bakeoff ? timeBakeoff(w, args.seconds, ops)
                                    : timeSingle(w, args.seconds, ops);
            }
            if (traced) {
                std::vector<RawSpan> raw;
                if (w.bakeoff) {
                    // The representative job's runs are checked among
                    // themselves and against the grid's cell for it.
                    Ops job_ops(w.name + " representative job", nullptr);
                    r.layers = traceSingle(w, 0.0, kMinReps, job_ops,
                                           clock_ns,
                                           !args.trace_out.empty(), raw);
                    for (const auto &[name, value] : traceBakeoff(
                             w, args.seconds, *job_ops.first(), ops))
                        (*r.layers)[name] = value;
                    ops.absorb(job_ops);
                } else {
                    r.layers = traceSingle(w, args.seconds, kMinReps, ops,
                                           clock_ns,
                                           !args.trace_out.empty(), raw);
                }
                spans.emplace_back(w.name, std::move(raw));
                for (const MetricSpec &m : kPerLayer)
                    r.layers->try_emplace(m.name, 0.0);
            }
        } catch (const std::exception &e) {
            ops.record(false, std::string("run threw: ") + e.what());
        }

        r.attempted = ops.attempted();
        r.failed = ops.failed();
        r.fingerprint = ops.first().value_or("none");
        if (args.write_golden && ops.first())
            golden.set(w.name, key, *ops.first());
        printReport(r);
        reports.push_back(std::move(r));
    }

    if (args.write_golden) {
        golden.save();
        std::cout << "\nasdbench: wrote " << ASDBENCH_GOLDEN << "\n";
    }
    if (!args.out.empty())
        writeReportFile(args.out, args, reports);
    if (!args.trace_out.empty())
        writeChromeTrace(args.trace_out, spans);

    // The result line: one workload reports bare metric names; several
    // prefix each with its workload.
    std::uint64_t attempted = 0, failed = 0;
    for (const Report &r : reports) {
        attempted += r.attempted;
        failed += r.failed;
    }
    JsonWriter line;
    line.beginObject();
    line.key("correct").value(failed == 0 && attempted > 0);
    line.key("attempted").value(attempted);
    line.key("failed").value(failed);
    line.key("metrics").beginObject();
    for (const Report &r : reports) {
        const std::string prefix =
            reports.size() == 1 ? "" : r.workload + "/";
        if (r.timed)
            writeMetrics(line, endToEnd(*r.timed), prefix,
                         std::begin(kEndToEnd), std::end(kEndToEnd));
        if (r.layers)
            writeMetrics(line, *r.layers, prefix, std::begin(kPerLayer),
                         std::end(kPerLayer));
    }
    line.endObject();
    line.endObject();
    std::cout << "\n" << line.str() << std::endl;
    return 0;
}
