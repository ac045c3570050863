/**
 * @file
 * Tests for the write-drain watermark machinery and the drain-aware
 * scheduler behaviors.
 */

#include <gtest/gtest.h>

#include "dram/dram.hpp"
#include "mc/memory_controller.hpp"
#include "mc/scheduler.hpp"

namespace asd
{
namespace
{

DramConfig
quiet()
{
    DramConfig config;
    config.refresh_enabled = false;
    return config;
}

TEST(McWriteDrain, WatermarkHysteresis)
{
    DramConfig dram_config = quiet();
    Dram dram(dram_config);
    McConfig config;
    config.write_drain_high = 4;
    config.write_drain_low = 1;
    MemoryController mc(config, dram, [](std::uint64_t, Cycle) {});

    for (std::uint64_t i = 0; i < 4; ++i)
        mc.enqueueWrite(i * 64, 0);
    EXPECT_FALSE(mc.drainingWrites());
    mc.tick(0); // sees 4 >= high -> drain mode
    EXPECT_TRUE(mc.drainingWrites());
    // Ticks move writes out; once <= low the mode clears.
    Cycle now = 1;
    while (mc.drainingWrites() && now < 10000)
        mc.tick(now++);
    EXPECT_FALSE(mc.drainingWrites());
    EXPECT_LT(now, 10000u);
}

TEST(McWriteDrain, DrainPrioritizesWritesOverYoungerReads)
{
    DramConfig dram_config = quiet();
    Dram dram(dram_config);
    AhbScheduler sched;
    std::deque<McCommand> reads;
    std::deque<McCommand> writes;
    McCommand read;
    read.line = 64;
    read.enqueued_at = 1;
    reads.push_back(read);
    McCommand write;
    write.line = 128;
    write.is_write = true;
    write.enqueued_at = 5;
    writes.push_back(write);

    const auto normal = sched.pick(reads, writes, dram, 10, false);
    ASSERT_TRUE(normal.has_value());
    EXPECT_FALSE(normal->from_write_queue);

    const auto draining = sched.pick(reads, writes, dram, 10, true);
    ASSERT_TRUE(draining.has_value());
    // With the write penalty lifted, the bank-idle write competes
    // evenly; AHB picks by cost then age, so the read (older) can
    // still win — but memoryless must take the write first.
    MemorylessScheduler memoryless;
    const auto m = memoryless.pick(reads, writes, dram, 10, true);
    ASSERT_TRUE(m.has_value());
    EXPECT_TRUE(m->from_write_queue);
}

TEST(McWriteDrain, FrFcfsBoostsWritesWhileDraining)
{
    DramConfig dram_config = quiet();
    Dram dram(dram_config);
    FrFcfsScheduler sched;
    std::deque<McCommand> reads;
    std::deque<McCommand> writes;
    McCommand read;
    read.line = 64;
    read.enqueued_at = 1;
    reads.push_back(read);
    McCommand write;
    write.line = 128;
    write.is_write = true;
    write.enqueued_at = 5;
    writes.push_back(write);

    const auto normal = sched.pick(reads, writes, dram, 10, false);
    ASSERT_TRUE(normal.has_value());
    EXPECT_FALSE(normal->from_write_queue); // both ready: oldest wins

    const auto draining = sched.pick(reads, writes, dram, 10, true);
    ASSERT_TRUE(draining.has_value());
    EXPECT_TRUE(draining->from_write_queue); // drain bonus wins
}

} // namespace
} // namespace asd
