#ifndef ASD_TRACE_SYNTHETIC_HPP
#define ASD_TRACE_SYNTHETIC_HPP

/**
 * @file
 * Synthetic workload generator. Stands in for the paper's SPEC2006fp /
 * NAS / IBM-commercial traces (see DESIGN.md section 2): it emits a
 * memory-reference stream drawn from a configurable mixture of
 * sequential streams, controlled by the knobs ASD actually reacts to —
 * stream-length distribution, direction mix, memory intensity, working
 * set size, interleaving, dependence, and phase changes.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.hpp"
#include "trace/trace_source.hpp"

namespace asd
{

/**
 * One program phase: a stream-length PMF plus how many accesses the
 * phase lasts. Phases cycle for the lifetime of the trace.
 */
struct PhaseProfile
{
    /**
     * Unnormalized stream-length weights; index i is the weight of
     * streams of length i+1 lines.
     */
    std::vector<double> stream_len_weights;

    /** Accesses before moving to the next phase (0 = rest of trace). */
    std::uint64_t accesses = 0;
};

/** Full description of a synthetic benchmark. */
struct SyntheticConfig
{
    /** PRNG seed; two configs with equal fields generate equal traces. */
    std::uint64_t seed = 1;

    /** Total accesses to emit. */
    std::uint64_t total_accesses = 200000;

    /** Bytes of distinct data touched; controls L2/L3 hit rates. */
    std::uint64_t working_set_bytes = 256ULL << 20;

    /** Cache line size used to lay out streams. */
    std::uint32_t line_bytes = 128;

    /** Mean non-memory instructions between accesses (geometric). */
    double mean_gap = 4.0;

    /** Fraction of accesses that are writes. */
    double write_frac = 0.2;

    /** Fraction of reads that are serialized pointer chases. */
    double dependent_frac = 0.0;

    /**
     * Fraction of accesses that re-touch a recently used line instead
     * of advancing a stream; creates cache hits that never reach the
     * memory controller.
     */
    double reuse_frac = 0.3;

    /** Fraction of streams walking toward lower addresses. */
    double negative_dir_frac = 0.1;

    /**
     * Mean accesses to each line of a stream before advancing (a
     * 128 B line holds 16 doubles; array sweeps touch each line
     * several times). Touches beyond the first hit in L1, spacing the
     * line-miss stream the memory controller sees.
     */
    double mean_touches_per_line = 1.0;

    /**
     * Unnormalized weights over per-stream line strides: index i is
     * the weight of stride i+1 lines. Default: all streams unit
     * stride (the only kind ASD can follow). Non-unit strides model
     * column walks / large-struct sweeps.
     */
    std::vector<double> stride_weights = {1.0};

    /** Concurrently interleaved streams (>= 1). */
    std::uint32_t concurrent_streams = 4;

    /** Program phases; must not be empty. */
    std::vector<PhaseProfile> phases;
};

/**
 * Generates a reproducible access trace from a SyntheticConfig.
 *
 * The generator keeps @c concurrent_streams live streams; each access
 * picks one at random and emits its next line, replacing a stream with
 * a freshly drawn one when it is exhausted. Stream lengths come from
 * the active phase's PMF, so the memory-controller-visible Stream
 * Length Histogram of the trace converges to that PMF.
 */
class SyntheticTraceGenerator : public TraceSource
{
  public:
    explicit SyntheticTraceGenerator(SyntheticConfig config);

    bool next(MemAccess &out) override;
    void reset() override;

    const SyntheticConfig &config() const { return config_; }

  protected:
    void snapshot(SnapshotIo &io) override;

  private:
    struct LiveStream
    {
        LineAddr line = 0;           //!< line currently being touched
        std::uint32_t lines_left = 0; //!< lines after this one
        std::uint32_t touches_left = 0;
        std::uint32_t stride = 1;     //!< lines per advance
        StreamDir dir = StreamDir::Positive;
    };

    void refill(LiveStream &stream);
    std::uint32_t drawTouches();
    std::uint32_t drawGap();
    LineAddr randomLine();
    void advancePhase();

    SyntheticConfig config_;
    Rng rng_;
    std::vector<LiveStream> streams_;
    // asdlint:allow(snapshot-field-coverage): samplers are stateless weight tables derived from config_ in the constructor
    std::vector<DiscreteSampler> phase_samplers_;
    // asdlint:allow(snapshot-field-coverage): see phase_samplers_
    std::unique_ptr<DiscreteSampler> stride_sampler_;
    std::vector<LineAddr> recent_lines_; //!< reuse pool (ring buffer)
    std::size_t recent_pos_ = 0;
    std::size_t phase_idx_ = 0;
    std::uint64_t phase_left_ = 0;
    std::uint64_t emitted_ = 0;
    // asdlint:allow(snapshot-field-coverage): derived from config_ (working-set bytes / line bytes) in the constructor
    std::uint64_t ws_lines_ = 0;
};

} // namespace asd

#endif // ASD_TRACE_SYNTHETIC_HPP
