#ifndef ASD_PREFETCH_ASD_PS_PREFETCHER_HPP
#define ASD_PREFETCH_ASD_PS_PREFETCHER_HPP

/**
 * @file
 * The paper's stated future work (section 6): Adaptive Stream
 * Detection applied to PROCESSOR-side prefetching. A Stream Filter
 * and Likelihood Tables identical to the memory-controller design
 * watch the L1 demand-access stream; prefetch decisions use the same
 * inequality (5)/(6), and hits land in L1 (next line) and L2 (the
 * line after, when degree 2 is enabled).
 *
 * Because this unit sees L1 accesses rather than CPU cycles, stream
 * lifetimes and epochs are counted in observed accesses (the hardware
 * could equally use a cycle counter; access counting keeps the unit
 * self-contained).
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "core/likelihood_table.hpp"
#include "core/stream_filter.hpp"
#include "prefetch/cpu_prefetcher.hpp"

namespace asd
{

/** Configuration of the processor-side ASD unit. */
struct AsdPsConfig
{
    std::uint32_t filter_slots = 8;
    std::uint32_t lht_entries = 16;

    /** Epoch length in observed L1 accesses. */
    std::uint32_t epoch_accesses = 8000;

    /** Stream lifetime in observed L1 accesses. */
    std::uint64_t lifetime_init = 96;
    std::uint64_t lifetime_extend = 128;

    /** Prefetch degree: 1 = next line (L1); 2 adds line+2 into L2. */
    std::uint32_t degree = 2;
};

/** ASD transplanted to the processor side. */
class AsdPsPrefetcher : public CpuPrefetcher
{
  public:
    explicit AsdPsPrefetcher(const AsdPsConfig &config);

    std::vector<PsPrefetchReq> observe(LineAddr line,
                                       bool was_l1_miss) override;

    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const override;

    std::uint64_t epochsCompleted() const { return epochs_; }

    /** Live LHTcurr for one direction (tests). */
    const LikelihoodTable &lhtCurr(StreamDir dir) const;

  protected:
    void snapshot(SnapshotIo &io) override;

  private:
    void streamDied(const DeadStream &dead);
    LikelihoodTablePair &tables(StreamDir dir);

    AsdPsConfig config_;
    StreamFilter filter_;
    LikelihoodTablePair positive_;
    LikelihoodTablePair negative_;

    std::uint64_t accesses_ = 0; //!< the unit's access-count clock
    std::uint32_t epoch_accesses_seen_ = 0;
    std::uint64_t epochs_ = 0;

    Counter requests_;
    Counter suppressed_;
    Counter overflow_;
};

} // namespace asd

#endif // ASD_PREFETCH_ASD_PS_PREFETCHER_HPP
