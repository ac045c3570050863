#include "dram/dram.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace asd
{

Dram::Dram(const DramConfig &config)
    : config_(config),
      banks_(config.totalBanks()),
      next_refresh_(config.ranks, config.t_refi * config.cpu_per_dram_clk),
      rank_blocked_to_(config.ranks, 0)
{
    panicIfNot(config_.ranks > 0 && config_.banks_per_rank > 0,
               "Dram: need at least one rank and bank");
    panicIfNot(config_.row_bytes % config_.line_bytes == 0,
               "Dram: row size must be a multiple of the line size");
}

Cycles
Dram::inCpu(std::uint32_t dram_clocks) const
{
    return static_cast<Cycles>(dram_clocks) * config_.cpu_per_dram_clk;
}

DramCoord
Dram::decode(LineAddr line) const
{
    const std::uint32_t lines_per_row = config_.linesPerRow();
    const std::uint32_t total_banks = config_.totalBanks();
    DramCoord coord;

    switch (config_.addr_map) {
      case AddrMap::LineInterleaved: {
        // Consecutive lines stripe across all banks.
        coord.bank = narrow<std::uint32_t>(line % total_banks);
        const std::uint64_t unit = line / total_banks;
        coord.col = narrow<std::uint32_t>(unit % lines_per_row);
        coord.row = unit / lines_per_row;
        coord.rank = coord.bank / config_.banks_per_rank;
        return coord;
      }
      case AddrMap::PageInterleaved:
      case AddrMap::XorPage: {
        // A full row of lines per bank, then the next bank — the
        // open-page mapping the Power5+ controller uses.
        coord.col = narrow<std::uint32_t>(line % lines_per_row);
        const std::uint64_t row_unit = line / lines_per_row;
        coord.bank = narrow<std::uint32_t>(row_unit % total_banks);
        coord.row = row_unit / total_banks;
        if (config_.addr_map == AddrMap::XorPage) {
            // Permutation-based interleaving: fold low row bits into
            // the bank index.
            coord.bank = narrow<std::uint32_t>(
                (coord.bank ^ coord.row) % total_banks);
        }
        coord.rank = coord.bank / config_.banks_per_rank;
        return coord;
      }
    }
    panic("unknown address map");
}

bool
Dram::canIssue(LineAddr line, Cycle now) const
{
    const DramCoord coord = decode(line);
    if (config_.refresh_enabled && rank_blocked_to_[coord.rank] > now)
        return false;
    return banks_[coord.bank].ready_at <= now;
}

BankOccupant
Dram::occupant(LineAddr line, Cycle now) const
{
    const DramCoord coord = decode(line);
    const Bank &bank = banks_[coord.bank];
    if (bank.ready_at <= now)
        return BankOccupant::None;
    return bank.occupant;
}

Cycle
Dram::bankReadyAt(LineAddr line) const
{
    return banks_[decode(line).bank].ready_at;
}

Cycle
Dram::issuableAt(LineAddr line) const
{
    const DramCoord coord = decode(line);
    const Cycle ready = banks_[coord.bank].ready_at;
    if (!config_.refresh_enabled)
        return ready;
    return std::max(ready, rank_blocked_to_[coord.rank]);
}

bool
Dram::rowOpen(LineAddr line) const
{
    const DramCoord coord = decode(line);
    const Bank &bank = banks_[coord.bank];
    return bank.open && bank.open_row == coord.row;
}

Cycle
Dram::applyRefresh(std::uint32_t rank, Cycle start)
{
    if (!config_.refresh_enabled)
        return start;
    // Lazy refresh: when a command finds the rank past its refresh
    // deadline, charge the refresh first and push the command behind
    // the tRFC window.
    while (start >= next_refresh_[rank]) {
        const Cycle refresh_start =
            std::max(next_refresh_[rank], rank_blocked_to_[rank]);
        rank_blocked_to_[rank] = refresh_start + inCpu(config_.t_rfc);
        next_refresh_[rank] += inCpu(config_.t_refi);
        refreshes_.inc();
    }
    return std::max(start, rank_blocked_to_[rank]);
}

Cycle
Dram::issue(LineAddr line, bool is_write, bool is_prefetch, Cycle now)
{
    const DramCoord coord = decode(line);
    Bank &bank = banks_[coord.bank];

    Cycle start = std::max(now, bank.ready_at);
    start = applyRefresh(coord.rank, start);

    Cycle col_start;
    if (!bank.open) {
        // ACT then column command.
        bank.activated_at = start;
        bank.open = true;
        bank.open_row = coord.row;
        col_start = start + inCpu(config_.t_rcd);
        activates_.inc();
        row_misses_.inc();
    } else if (bank.open_row == coord.row) {
        col_start = start;
        row_hits_.inc();
    } else {
        // Precharge (respecting tRAS), then ACT, then column command.
        const Cycle pre_start =
            std::max(start, bank.activated_at + inCpu(config_.t_ras));
        const Cycle act_start = pre_start + inCpu(config_.t_rp);
        bank.activated_at = act_start;
        bank.open_row = coord.row;
        col_start = act_start + inCpu(config_.t_rcd);
        activates_.inc();
        row_misses_.inc();
    }

    const Cycles access = inCpu(is_write ? config_.t_cwl : config_.t_cl);
    const Cycle data_start = std::max(col_start + access, bus_free_at_);
    const Cycle done = data_start + inCpu(config_.t_burst);
    bus_free_at_ = done;

    // Column commands to the same open row pipeline at the CAS-to-CAS
    // gap (one burst), not at the full data-return latency; the data
    // bus model above provides the global serialization. Writes add
    // the write-recovery window before the bank may precharge or read.
    const Cycle cas_issued = data_start - access;
    bank.ready_at = cas_issued + inCpu(config_.t_burst);
    if (is_write)
        bank.ready_at = std::max(bank.ready_at,
                                 done + inCpu(config_.t_wr));

    bank.occupant = is_prefetch ? BankOccupant::Prefetch
                                : BankOccupant::Regular;

    if (is_write)
        writes_.inc();
    else
        reads_.inc();
    return done;
}

void
Dram::snapshot(SnapshotIo &io)
{
    io.expect(banks_.size(), "dram bank geometry mismatch");
    for (Bank &bank : banks_) {
        io.b(bank.open);
        io.u64(bank.open_row);
        io.u64(bank.ready_at);
        io.u64(bank.activated_at);
        io.enumeration(bank.occupant, BankOccupant::Prefetch,
                       "dram bank occupant out of range");
    }
    io.vecU64(next_refresh_, "dram refresh-unit count mismatch");
    io.vecU64(rank_blocked_to_, "dram rank count mismatch");
    io.u64(bus_free_at_);
    io.counter(activates_);
    io.counter(reads_);
    io.counter(writes_);
    io.counter(refreshes_);
    io.counter(row_hits_);
    io.counter(row_misses_);
}

void
Dram::registerStats(StatRegistry &registry) const
{
    registry.add("dram.activates", activates_);
    registry.add("dram.reads", reads_);
    registry.add("dram.writes", writes_);
    registry.add("dram.refreshes", refreshes_);
    registry.add("dram.row_hits", row_hits_);
    registry.add("dram.row_misses", row_misses_);
}

} // namespace asd
