/**
 * @file
 * Tests for the DDR2 model: address decode, bank timing, row-buffer
 * behavior, data-bus serialization, refresh accounting and the power
 * model.
 */

#include <set>

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "dram/dram.hpp"
#include "dram/power.hpp"

namespace asd
{
namespace
{

DramConfig
quietConfig()
{
    DramConfig config;
    config.refresh_enabled = false;
    return config;
}

TEST(DramDecode, CoversAllBanks)
{
    Dram dram(quietConfig());
    std::set<std::uint32_t> banks;
    for (LineAddr line = 0; line < 64ULL * 16 * 4; line += 64)
        banks.insert(dram.decode(line).bank);
    EXPECT_EQ(banks.size(), dram.config().totalBanks());
}

TEST(DramDecode, ConsecutiveLinesShareARow)
{
    Dram dram(quietConfig());
    const DramCoord a = dram.decode(0);
    const DramCoord b = dram.decode(1);
    EXPECT_EQ(a.row, b.row);
    EXPECT_EQ(a.bank, b.bank);
    EXPECT_EQ(a.col + 1, b.col);
}

/**
 * Property: under every address map, decode is injective over a large
 * address window and a bank's rank is its rank-major index.
 */
TEST(DramDecode, InjectiveProperty)
{
    for (const AddrMap map : {AddrMap::PageInterleaved,
                              AddrMap::LineInterleaved,
                              AddrMap::XorPage}) {
        SCOPED_TRACE(static_cast<int>(map));
        DramConfig config = quietConfig();
        config.addr_map = map;
        Dram dram(config);
        std::set<std::tuple<std::uint32_t, std::uint64_t, std::uint32_t>>
            seen;
        Rng rng(5);
        for (int i = 0; i < 20000; ++i) {
            const LineAddr line = rng.nextBelow(1ULL << 30);
            const DramCoord coord = dram.decode(line);
            EXPECT_LT(coord.rank, config.ranks);
            EXPECT_EQ(coord.rank, coord.bank / config.banks_per_rank);
            EXPECT_LT(coord.bank, config.totalBanks());
            EXPECT_LT(coord.col, config.linesPerRow());
            seen.insert({coord.bank, coord.row, coord.col});
        }
        // Random 30-bit lines rarely collide; injectivity implies
        // nearly as many coordinates as draws.
        EXPECT_GT(seen.size(), 19900u);
    }
}

TEST(DramDecode, LineInterleavedStripesBanks)
{
    DramConfig config;
    config.refresh_enabled = false;
    config.addr_map = AddrMap::LineInterleaved;
    Dram dram(config);
    for (LineAddr line = 0; line + 1 < dram.config().totalBanks();
         ++line) {
        EXPECT_NE(dram.decode(line).bank, dram.decode(line + 1).bank);
    }
}

TEST(DramDecode, XorPageStillCoversAllBanks)
{
    DramConfig config;
    config.refresh_enabled = false;
    config.addr_map = AddrMap::XorPage;
    Dram dram(config);
    std::set<std::uint32_t> banks;
    for (LineAddr line = 0; line < 64ULL * 16 * 32; line += 64)
        banks.insert(dram.decode(line).bank);
    EXPECT_EQ(banks.size(), dram.config().totalBanks());
}

TEST(DramDecode, RowOpenTracksIssuedRow)
{
    DramConfig config;
    config.refresh_enabled = false;
    Dram dram(config);
    EXPECT_FALSE(dram.rowOpen(0));
    dram.issue(0, false, false, 0);
    EXPECT_TRUE(dram.rowOpen(1));  // same row
    EXPECT_FALSE(dram.rowOpen(64)); // other bank, closed
}

TEST(DramTiming, RowHitFasterThanRowMiss)
{
    Dram dram(quietConfig());
    const Cycle first = dram.issue(0, false, false, 0);
    // Same row: hit.
    const Cycle hit = dram.issue(1, false, false, first);
    // Same bank, different row: miss with precharge.
    const LineAddr other_row =
        static_cast<LineAddr>(dram.config().linesPerRow()) *
        dram.config().banks_per_rank * dram.config().ranks;
    ASSERT_EQ(dram.decode(other_row).bank, dram.decode(0).bank);
    ASSERT_NE(dram.decode(other_row).row, dram.decode(0).row);
    const Cycle miss = dram.issue(other_row, false, false, hit);
    EXPECT_LT(hit - first, miss - hit);
    EXPECT_EQ(dram.rowHits(), 1u);
    EXPECT_EQ(dram.rowMisses(), 2u);
}

TEST(DramTiming, BackToBackRowHitsPipeline)
{
    Dram dram(quietConfig());
    dram.issue(0, false, false, 0);
    Cycle prev = dram.issue(1, false, false, 0);
    for (LineAddr line = 2; line < 8; ++line) {
        const Cycle done = dram.issue(line, false, false, 0);
        // Data-bus limited: one burst apart.
        EXPECT_EQ(done - prev,
                  static_cast<Cycles>(dram.config().t_burst) *
                      dram.config().cpu_per_dram_clk);
        prev = done;
    }
}

TEST(DramTiming, CompletionNeverBeforeMinimumLatency)
{
    Dram dram(quietConfig());
    const DramConfig &config = dram.config();
    const Cycle done = dram.issue(12345, false, false, 1000);
    const Cycles minimum =
        static_cast<Cycles>(config.t_rcd + config.t_cl +
                            config.t_burst) *
        config.cpu_per_dram_clk;
    EXPECT_GE(done - 1000, minimum);
}

TEST(DramTiming, CanIssueReflectsBankBusy)
{
    Dram dram(quietConfig());
    EXPECT_TRUE(dram.canIssue(0, 0));
    dram.issue(0, false, false, 0);
    EXPECT_FALSE(dram.canIssue(1, 0)); // same bank, still busy
    EXPECT_TRUE(dram.canIssue(64, 0)); // different bank
    EXPECT_TRUE(dram.canIssue(1, dram.bankReadyAt(1)));
}

TEST(DramTiming, WritesAddRecovery)
{
    Dram dram(quietConfig());
    const Cycle write_done = dram.issue(0, true, false, 0);
    EXPECT_GT(dram.bankReadyAt(0), write_done);
    EXPECT_EQ(dram.writes(), 1u);
}

TEST(DramTiming, OccupantTracksPrefetchVsRegular)
{
    Dram dram(quietConfig());
    dram.issue(0, false, true, 0);
    EXPECT_EQ(dram.occupant(1, 0), BankOccupant::Prefetch);
    EXPECT_EQ(dram.occupant(64, 0), BankOccupant::None);
    const Cycle ready = dram.bankReadyAt(0);
    dram.issue(0, false, false, ready);
    EXPECT_EQ(dram.occupant(1, ready), BankOccupant::Regular);
}

/**
 * A bank holding another row is a conflict: the access closes that
 * row and costs exactly one precharge more than opening an idle bank.
 */
TEST(DramTiming, BankConflictDetection)
{
    const DramConfig config = quietConfig();
    Dram dram(config);
    const LineAddr conflict =
        static_cast<LineAddr>(config.linesPerRow()) * config.totalBanks();
    ASSERT_EQ(dram.decode(conflict).bank, dram.decode(0).bank);
    ASSERT_NE(dram.decode(conflict).row, dram.decode(0).row);

    const Cycle opened = dram.issue(0, false, false, 0);
    EXPECT_TRUE(dram.rowOpen(0));
    EXPECT_FALSE(dram.rowOpen(conflict));

    // Issue well past tRAS so only the precharge itself is charged.
    const Cycle later = 1000;
    const Cycle done = dram.issue(conflict, false, false, later);
    EXPECT_EQ(done - later,
              opened + static_cast<Cycles>(config.t_rp) *
                           config.cpu_per_dram_clk);
    EXPECT_TRUE(dram.rowOpen(conflict));
    EXPECT_FALSE(dram.rowOpen(0));
    EXPECT_EQ(dram.activates(), 2u);
    EXPECT_EQ(dram.rowMisses(), 2u);
    EXPECT_EQ(dram.rowHits(), 0u);
}

/** A conflict right after an activate waits out tRAS to precharge. */
TEST(DramOpenPage, ConflictPrechargeWaitsForTras)
{
    const DramConfig config = quietConfig();
    Dram dram(config);
    const LineAddr conflict =
        static_cast<LineAddr>(config.linesPerRow()) * config.totalBanks();
    dram.issue(0, false, false, 0); // ACT at cycle 0
    const Cycle done =
        dram.issue(conflict, false, false, dram.bankReadyAt(0));
    const std::uint32_t clocks = config.t_ras + config.t_rp +
                                 config.t_rcd + config.t_cl +
                                 config.t_burst;
    EXPECT_EQ(done,
              static_cast<Cycle>(clocks) * config.cpu_per_dram_clk);
}

/** Rows stay open: a run of lines in one row activates it once. */
TEST(DramOpenPage, SequentialLinesHitTheOpenRow)
{
    Dram dram(quietConfig());
    Cycle now = 0;
    for (LineAddr line = 0; line < 8; ++line)
        now = dram.issue(line, false, false, now);
    EXPECT_EQ(dram.activates(), 1u);
    EXPECT_EQ(dram.rowMisses(), 1u);
    EXPECT_EQ(dram.rowHits(), 7u);
    EXPECT_TRUE(dram.rowOpen(0));
    EXPECT_TRUE(dram.rowOpen(dram.config().linesPerRow() - 1));
}

/**
 * One data bus serves every bank and rank: same-cycle reads to
 * different banks overlap their activates but not their bursts.
 */
TEST(DramBus, SameCycleReadsSerializeOnTheOneBus)
{
    const DramConfig config = quietConfig();
    Dram dram(config);
    const LineAddr rows = config.linesPerRow();
    const LineAddr bank0 = 0;
    const LineAddr bank1 = rows;
    const LineAddr other_rank = rows * config.banks_per_rank;
    ASSERT_NE(dram.decode(bank0).bank, dram.decode(bank1).bank);
    ASSERT_EQ(dram.decode(bank0).rank, dram.decode(bank1).rank);
    ASSERT_NE(dram.decode(bank0).rank, dram.decode(other_rank).rank);

    const Cycles burst =
        static_cast<Cycles>(config.t_burst) * config.cpu_per_dram_clk;
    const Cycle first = dram.issue(bank0, false, false, 0);
    EXPECT_EQ(dram.issue(bank1, false, false, 0), first + burst);
    EXPECT_EQ(dram.issue(other_rank, false, false, 0),
              first + 2 * burst);
}

/**
 * The "dram" section restores banks, counters and the data bus: a
 * restored model saves the same bytes, and its next read still waits
 * for the bursts queued on the bus before the save.
 */
TEST(DramSnapshot, RestoreKeepsBusAndBankState)
{
    const DramConfig config;
    Dram original(config);
    original.issue(0, false, false, 0);
    original.issue(64, true, true, 0);
    original.issue(8 * 64, false, false, 0);

    const auto bytesOf = [](const Dram &dram) {
        SnapshotWriter writer;
        writer.beginSection("dram");
        dram.saveState(writer);
        writer.endSection();
        return writer.finish(0);
    };
    const std::vector<std::uint8_t> saved = bytesOf(original);
    Dram restored(config);
    SnapshotReader reader(saved);
    reader.openSection("dram");
    restored.loadState(reader);
    reader.endSection();

    EXPECT_TRUE(bytesOf(restored) == saved);
    EXPECT_EQ(restored.activates(), 3u);
    EXPECT_EQ(restored.writes(), 1u);
    EXPECT_TRUE(restored.rowOpen(8 * 64));
    EXPECT_EQ(restored.occupant(64, 0), BankOccupant::Prefetch);
    // A read to a fourth, idle bank queues behind the three bursts.
    const Cycles burst =
        static_cast<Cycles>(config.t_burst) * config.cpu_per_dram_clk;
    const Cycle bus_free = original.issue(2 * 64, false, false, 0);
    EXPECT_EQ(bus_free, Dram(config).issue(0, false, false, 0) +
                            3 * burst);
    EXPECT_EQ(restored.issue(2 * 64, false, false, 0), bus_free);
}

TEST(DramRefresh, ChargesRefreshesOverTime)
{
    DramConfig config;
    config.refresh_enabled = true;
    Dram dram(config);
    const Cycles refi =
        static_cast<Cycles>(config.t_refi) * config.cpu_per_dram_clk;
    // Issue a command long after several refresh deadlines passed.
    dram.issue(0, false, false, 10 * refi);
    EXPECT_GE(dram.refreshes(), 10u);
}

TEST(DramRefresh, WindowBlocksOnlyItsOwnRank)
{
    const DramConfig config;
    Dram dram(config);
    const Cycle deadline =
        static_cast<Cycle>(config.t_refi) * config.cpu_per_dram_clk;
    const Cycle window_end =
        deadline + static_cast<Cycles>(config.t_rfc) *
                       config.cpu_per_dram_clk;
    // The first command lands on its rank's refresh deadline, so the
    // rank is refreshed first and blocked for tRFC.
    const LineAddr first = 0;
    const std::uint32_t rank = dram.decode(first).rank;
    LineAddr same_rank = 1;
    while (dram.decode(same_rank).rank != rank ||
           dram.decode(same_rank).bank == dram.decode(first).bank)
        ++same_rank;
    LineAddr other_rank = 1;
    while (dram.decode(other_rank).rank == rank)
        ++other_rank;
    dram.issue(first, false, false, deadline);
    ASSERT_EQ(dram.refreshes(), 1u);

    // An idle bank of the refreshing rank waits out the window...
    EXPECT_FALSE(dram.canIssue(same_rank, deadline + 1));
    EXPECT_FALSE(dram.canIssue(same_rank, window_end - 1));
    EXPECT_EQ(dram.issuableAt(same_rank), window_end);
    EXPECT_TRUE(dram.canIssue(same_rank, window_end));
    // ...while the other rank's banks stay issuable throughout.
    EXPECT_TRUE(dram.canIssue(other_rank, deadline + 1));
    EXPECT_EQ(dram.issuableAt(other_rank), 0u);
}

TEST(DramRefresh, DisabledModelNeverRefreshes)
{
    Dram dram(quietConfig());
    dram.issue(0, false, false, 100000000);
    EXPECT_EQ(dram.refreshes(), 0u);
}

TEST(DramPower, EnergyScalesWithActivity)
{
    const DramConfig config = quietConfig();
    Dram idle(config);
    Dram busy(config);
    Cycle now = 0;
    for (int i = 0; i < 100; ++i)
        now = busy.issue(static_cast<LineAddr>(i) * 64, i % 2 == 0,
                         false, now);
    const PowerModel model(config);
    const PowerReport idle_report = model.report(idle, now);
    const PowerReport busy_report = model.report(busy, now);
    EXPECT_GT(busy_report.totalPj(), idle_report.totalPj());
    EXPECT_DOUBLE_EQ(idle_report.activate_pj, 0.0);
    EXPECT_GT(busy_report.read_pj, 0.0);
    EXPECT_GT(busy_report.write_pj, 0.0);
}

TEST(DramPower, AveragePowerConsistentWithEnergy)
{
    const DramConfig config = quietConfig();
    Dram dram(config);
    const Cycle elapsed = 1000000;
    const PowerModel model(config);
    const PowerReport report = model.report(dram, elapsed);
    const double seconds = static_cast<double>(elapsed) / 2.132e9;
    EXPECT_NEAR(report.averageWatts(elapsed, 2.132e9),
                report.totalPj() * 1e-12 / seconds, 1e-9);
}

TEST(DramPower, ZeroElapsedIsZeroWatts)
{
    const DramConfig config = quietConfig();
    Dram dram(config);
    const PowerModel model(config);
    EXPECT_DOUBLE_EQ(model.report(dram, 0).averageWatts(0, 2.132e9),
                     0.0);
}

TEST(DramStats, CountsMatchIssuedCommands)
{
    Dram dram(quietConfig());
    Cycle now = 0;
    for (int i = 0; i < 10; ++i)
        now = dram.issue(static_cast<LineAddr>(i), false, false, now);
    for (int i = 0; i < 5; ++i)
        now = dram.issue(static_cast<LineAddr>(i) + 1000, true, false,
                         now);
    EXPECT_EQ(dram.reads(), 10u);
    EXPECT_EQ(dram.writes(), 5u);
    EXPECT_EQ(dram.rowHits() + dram.rowMisses(), 15u);
}

} // namespace
} // namespace asd
