#ifndef ASD_CORE_STREAM_FILTER_HPP
#define ASD_CORE_STREAM_FILTER_HPP

/**
 * @file
 * The Stream Filter of section 3.3: a small table of in-flight read
 * streams. Each slot holds the last line accessed, the length so far,
 * the direction, and a lifetime; expired or epoch-flushed slots report
 * their lengths so the Likelihood Tables can be updated.
 *
 * A slot count of zero selects an unbounded "oracle" filter with no
 * capacity misses, used to measure SLH approximation accuracy
 * (Fig. 16).
 */

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "snapshot/snapshot.hpp"

namespace asd
{

/** A stream evicted from the filter (lifetime expiry or flush). */
struct DeadStream
{
    std::uint64_t length = 1;
    StreamDir dir = StreamDir::Positive;
};

/** What happened when the filter observed one read. */
struct StreamObservation
{
    enum class Kind : std::uint8_t
    {
        Allocated, //!< new stream in a vacant slot (length 1)
        Extended,  //!< read continued an existing stream
        Overflow,  //!< no vacant slot; treat as a length-1 stream
        SameLine,  //!< repeat of a stream's last line (refresh only)
    };

    Kind kind = Kind::Allocated;

    /** Stream length after this read (1 for Allocated/Overflow). */
    std::uint64_t length = 1;

    /** Direction of the matched/allocated stream. */
    StreamDir dir = StreamDir::Positive;

    /**
     * An extension (or flip) landed on another live slot's last line:
     * the two streams converged, the stale slot was invalidated, and
     * its stream is reported here so the caller can fold it into the
     * SLH like any other dead stream. Keeps "no two valid slots share
     * a last line" a true invariant.
     */
    bool converged = false;
    DeadStream converged_stream;
};

/** The Stream Filter. */
class StreamFilter : public Snapshottable
{
  public:
    /**
     * @param slots capacity; 0 = unbounded oracle mode.
     * @param lifetime_init initial lifetime in cycles.
     * @param lifetime_extend lifetime added per extension.
     */
    StreamFilter(std::uint32_t slots, Cycles lifetime_init,
                 Cycles lifetime_extend);

    /**
     * Track one read. Matching rules (paper section 3.3):
     *  - a read equal to a stream's last line + step extends it;
     *  - a read equal to last - 1 of a length-1 stream flips that
     *    stream negative and extends it;
     *  - a repeat of a stream's last line refreshes its lifetime;
     *  - otherwise a vacant slot is allocated, or Overflow reported.
     *
     * A line can satisfy several rules on *different* slots at once
     * (extend slot A and repeat slot B's last line). Match priority is
     * explicit and slot-order independent: extension beats
     * direction-flip beats same-line, each rule scanned across all
     * slots before the next is tried. When an extension or flip lands
     * on another slot's last line the loser slot is retired and
     * reported via StreamObservation::converged.
     */
    StreamObservation observe(LineAddr line, Cycle now);

    /** Evict every stream whose lifetime expired by @p now. */
    std::vector<DeadStream> expireLifetimes(Cycle now);

    /**
     * Earliest lifetime expiry among the live streams: the first
     * cycle at which expireLifetimes() evicts one. kNoCycle when no
     * stream is live.
     */
    Cycle nextExpiry() const;

    /** Evict all streams (end of epoch). */
    std::vector<DeadStream> flushAll();

    /** Valid slots right now. */
    std::size_t liveStreams() const;

    /**
     * Online reconfiguration: change the slot capacity in place.
     * Growing keeps every live stream and adds vacant slots.
     * Shrinking keeps the @p slots streams with the most remaining
     * lifetime (the ones extended most recently; ties broken by slot
     * index) and retires the rest, returning them so the caller can
     * fold them into the SLH like any other dead stream. @p slots = 0
     * switches to unbounded oracle mode (keeps everything).
     */
    std::vector<DeadStream> resize(std::uint32_t slots);

    std::uint32_t slots() const { return slots_; }

  protected:
    void snapshot(SnapshotIo &io) override;

  private:
    struct Slot
    {
        LineAddr last = 0;
        std::uint64_t length = 0;
        Cycle expires_at = 0;
        StreamDir dir = StreamDir::Positive;
        bool valid = false;
    };

    /**
     * Retire every *other* live slot whose last line equals
     * @p winner's new last line (stream convergence) and report it in
     * @p result; then assert slot-last uniqueness under checks.
     */
    void mergeConverged(const Slot &winner, StreamObservation &result);

    std::uint32_t slots_; //!< 0 = unbounded
    // asdlint:allow(snapshot-field-coverage): lifetime knobs are ctor configuration, re-derived when the filter is rebuilt
    Cycles lifetime_init_;
    // asdlint:allow(snapshot-field-coverage): see lifetime_init_
    Cycles lifetime_extend_;
    std::vector<Slot> table_;
};

} // namespace asd

#endif // ASD_CORE_STREAM_FILTER_HPP
