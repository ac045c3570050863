#ifndef ASD_DRAM_DRAM_CONFIG_HPP
#define ASD_DRAM_DRAM_CONFIG_HPP

/**
 * @file
 * Configuration for the DDR2-533 main-memory model behind the
 * Power5+-like memory controller. All timing fields are expressed in
 * DRAM clocks and converted to CPU cycles internally (the paper's
 * system runs the CPU at 2.132 GHz with DDR2-533, i.e. 8 CPU cycles
 * per 266 MHz DRAM clock).
 */

#include <cstdint>

namespace asd
{

/** How line addresses map onto (rank, bank, row, column). */
enum class AddrMap : std::uint8_t
{
    /**
     * Page-interleaved (default): a full row of lines per bank, then
     * the next bank — streams enjoy row hits while spreading across
     * banks at page granularity (the open-page mapping of the
     * Power5+ controller).
     */
    PageInterleaved,

    /**
     * Line-interleaved: consecutive lines hit consecutive banks —
     * maximum bank parallelism for streams, but every access opens
     * its own row.
     */
    LineInterleaved,

    /**
     * Page-interleaved with the bank index XOR-folded with low row
     * bits (permutation-based interleaving) to break pathological
     * bank conflicts between same-stride streams.
     */
    XorPage,
};

/**
 * DDR2 geometry, timing and energy parameters of the one ganged
 * channel. Rows stay open until a conflicting access (the open-page
 * policy of the Power5+ controller).
 */
struct DramConfig
{
    AddrMap addr_map = AddrMap::PageInterleaved;

    /** CPU cycles per DRAM clock (2.132 GHz / 266 MHz = 8). */
    std::uint32_t cpu_per_dram_clk = 8;

    /** Independent ranks on the channel. */
    std::uint32_t ranks = 2;

    /** Banks per rank. */
    std::uint32_t banks_per_rank = 8;

    /** Row (page) size in bytes. */
    std::uint32_t row_bytes = 8192;

    /** Cache line size transferred per burst. */
    std::uint32_t line_bytes = 128;

    // --- timing, in DRAM clocks (DDR2-533 4-4-4-12) ---
    std::uint32_t t_rcd = 4;   //!< ACT to column command
    std::uint32_t t_cl = 4;    //!< read column to first data
    std::uint32_t t_cwl = 3;   //!< write column to first data
    std::uint32_t t_rp = 4;    //!< precharge
    std::uint32_t t_ras = 12;  //!< ACT to precharge minimum
    std::uint32_t t_wr = 4;    //!< write recovery
    /**
     * Data-bus occupancy of one 128 B line. The Power5+ reads from
     * two 8 B DDR2-533 channels in parallel (~8.5 GB/s), so a line
     * occupies the effective 16 B-wide data path for 8 beats =
     * 4 DRAM clocks.
     */
    std::uint32_t t_burst = 4;
    std::uint32_t t_rfc = 26;  //!< refresh cycle time
    std::uint32_t t_refi = 2080; //!< average refresh interval (7.8 us)

    /** Enable the periodic refresh model. */
    bool refresh_enabled = true;

    // --- energy model, picojoules per event / per CPU cycle ---
    double e_activate_pj = 6000.0; //!< ACT+PRE pair, whole rank
    double e_read_pj = 4200.0;     //!< read burst incl. I/O
    double e_write_pj = 4600.0;    //!< write burst incl. I/O
    double e_refresh_pj = 14000.0; //!< one all-bank refresh
    /**
     * Standby/PLL power of all ranks: ~1.2 W at 2.132 GHz, i.e.
     * ~560 pJ per CPU cycle (DDR2 registered DIMM ballpark).
     */
    double p_background_pj_per_cpu_cycle = 560.0;

    /** Total lines addressable (derived helpers below). */
    std::uint32_t
    linesPerRow() const
    {
        return row_bytes / line_bytes;
    }

    std::uint32_t
    totalBanks() const
    {
        return ranks * banks_per_rank;
    }
};

} // namespace asd

#endif // ASD_DRAM_DRAM_CONFIG_HPP
