#ifndef ASD_DRAM_DRAM_HPP
#define ASD_DRAM_DRAM_HPP

/**
 * @file
 * Command-level DDR2 model: per-bank open-row state machines, a shared
 * data bus, periodic refresh, and event counters feeding the power
 * model. This is the Memsim stand-in described in DESIGN.md.
 */

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "dram/dram_config.hpp"
#include "snapshot/snapshot.hpp"

namespace asd
{

/** Who last occupied a bank; used for prefetch-conflict feedback. */
enum class BankOccupant : std::uint8_t { None, Regular, Prefetch };

/** Decoded DRAM coordinates of a line address. */
struct DramCoord
{
    std::uint32_t rank = 0;
    std::uint32_t bank = 0;   //!< global bank index (rank-major)
    std::uint64_t row = 0;
    std::uint32_t col = 0;    //!< line-within-row

    bool
    operator==(const DramCoord &other) const = default;
};

/**
 * The DDR2 channel. The memory controller calls issue() when the FIFO
 * head of the CAQ (or an LPQ prefetch) is sent to memory; the model
 * returns the cycle at which the data transfer completes.
 */
class Dram : public Snapshottable
{
  public:
    explicit Dram(const DramConfig &config);

    /** Map a line address onto (rank, bank, row, col). */
    DramCoord decode(LineAddr line) const;

    /**
     * True when the command's bank can accept a new command at @p now
     * (no wait beyond bus arbitration). This is the "issuable"
     * predicate used by the reorder-queue schedulers.
     */
    bool canIssue(LineAddr line, Cycle now) const;

    /**
     * Occupant of the line's bank at @p now; BankOccupant::None when
     * the bank is idle.
     */
    BankOccupant occupant(LineAddr line, Cycle now) const;

    /**
     * Issue a read or write burst for @p line.
     * @param is_write write burst when true.
     * @param is_prefetch marks the bank occupant for conflict feedback.
     * @param now issue cycle (CPU cycles).
     * @return cycle at which the last data beat transfers.
     */
    Cycle issue(LineAddr line, bool is_write, bool is_prefetch, Cycle now);

    /** Earliest cycle the line's bank becomes ready. */
    Cycle bankReadyAt(LineAddr line) const;

    /**
     * Earliest cycle at which canIssue(@p line, ...) holds, absent
     * further commands: the bank's ready time or the end of its
     * rank's refresh window, whichever is later.
     */
    Cycle issuableAt(LineAddr line) const;

    /** True when the line's row is open in its bank (a row hit). */
    bool rowOpen(LineAddr line) const;

    /** Register counters under "dram." in @p registry. */
    void registerStats(StatRegistry &registry) const;

    // Event counters for the power model and tests.
    std::uint64_t activates() const { return activates_.value(); }
    std::uint64_t reads() const { return reads_.value(); }
    std::uint64_t writes() const { return writes_.value(); }
    std::uint64_t refreshes() const { return refreshes_.value(); }
    std::uint64_t rowHits() const { return row_hits_.value(); }
    std::uint64_t rowMisses() const { return row_misses_.value(); }

    const DramConfig &config() const { return config_; }

  protected:
    void snapshot(SnapshotIo &io) override;

  private:
    struct Bank
    {
        bool open = false;
        std::uint64_t open_row = 0;
        Cycle ready_at = 0;     //!< earliest next command start
        Cycle activated_at = 0; //!< for tRAS accounting
        BankOccupant occupant = BankOccupant::None;
    };

    /** Advance the refresh machinery for one rank. */
    Cycle applyRefresh(std::uint32_t rank, Cycle start);

    Cycles inCpu(std::uint32_t dram_clocks) const;

    DramConfig config_;
    std::vector<Bank> banks_;
    std::vector<Cycle> next_refresh_;     //!< per rank
    std::vector<Cycle> rank_blocked_to_;  //!< per rank
    Cycle bus_free_at_ = 0;               //!< the shared data bus

    Counter activates_;
    Counter reads_;
    Counter writes_;
    Counter refreshes_;
    Counter row_hits_;
    Counter row_misses_;
};

} // namespace asd

#endif // ASD_DRAM_DRAM_HPP
