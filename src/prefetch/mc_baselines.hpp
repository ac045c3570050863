#ifndef ASD_PREFETCH_MC_BASELINES_HPP
#define ASD_PREFETCH_MC_BASELINES_HPP

/**
 * @file
 * The two memory-controller-resident baseline prefetchers of Fig. 11:
 * a next-line prefetcher and a Power5-style stream prefetcher, both
 * running "no ASD + adaptive scheduling" on the same buffer and
 * scheduler as ASD (BufferedMcPrefetcher), so the comparison isolates
 * the stream-detection policy itself.
 */

#include <cstdint>
#include <vector>

#include "core/buffered_prefetcher.hpp"
#include "core/stream_filter.hpp"

namespace asd
{

/** Prefetch line + 1 on every read ("no ASD + next-line"). */
class NextLineMcPrefetcher : public BufferedMcPrefetcher
{
  public:
    explicit NextLineMcPrefetcher(const AsdConfig &config)
        : BufferedMcPrefetcher(config)
    {}

    std::vector<LineAddr> observeRead(LineAddr line,
                                      std::uint32_t thread,
                                      Cycle now) override;
};

/**
 * Power5-style stream prefetching transplanted into the memory
 * controller: confirm a stream on two sequential reads, then keep
 * prefetching one line ahead until the stream dies (its inevitable
 * end-of-stream overshoot is exactly what ASD eliminates).
 */
class P5StyleMcPrefetcher : public BufferedMcPrefetcher
{
  public:
    explicit P5StyleMcPrefetcher(const AsdConfig &config);

    std::vector<LineAddr> observeRead(LineAddr line,
                                      std::uint32_t thread,
                                      Cycle now) override;

    void tick(Cycle now) override;

    /** The earliest Stream Filter expiry across the threads. */
    Cycle nextTickDue(Cycle now) const override;

  protected:
    void snapshot(SnapshotIo &io) override;

  private:
    std::vector<StreamFilter> filters_; //!< one per thread
};

} // namespace asd

#endif // ASD_PREFETCH_MC_BASELINES_HPP
