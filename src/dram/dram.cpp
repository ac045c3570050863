#include "dram/dram.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace asd
{

Dram::Dram(const DramConfig &config)
    : config_(config),
      banks_(static_cast<std::size_t>(config.totalBanks()) *
             config.channels),
      next_refresh_(static_cast<std::size_t>(config.ranks) *
                        config.channels,
                    config.t_refi * config.cpu_per_dram_clk),
      rank_blocked_to_(static_cast<std::size_t>(config.ranks) *
                           config.channels,
                       0),
      bus_free_at_(config.channels, 0)
{
    panicIfNot(config_.ranks > 0 && config_.banks_per_rank > 0,
               "Dram: need at least one rank and bank");
    panicIfNot(config_.channels > 0, "Dram: need at least one channel");
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
    const std::uint32_t total_banks =
        config_.totalBanks() * config_.channels;
    DramCoord coord;

    // Bank indices stripe channel-major so consecutive bank units hit
    // alternate channels (and with them, independent data buses).
    const auto split = [&](std::uint32_t bank_global) {
        coord.bank = bank_global;
        coord.channel = bank_global % config_.channels;
        const std::uint32_t in_channel =
            bank_global / config_.channels;
        coord.rank = in_channel / config_.banks_per_rank;
    };

    switch (config_.addr_map) {
      case AddrMap::LineInterleaved: {
        // Consecutive lines stripe across all banks and channels.
        split(narrow<std::uint32_t>(line % total_banks));
        const std::uint64_t unit = line / total_banks;
        coord.col = narrow<std::uint32_t>(unit % lines_per_row);
        coord.row = unit / lines_per_row;
        return coord;
      }
      case AddrMap::PageInterleaved:
      case AddrMap::XorPage: {
        // A full row of lines per bank, then the next bank — the
        // open-page mapping the Power5+ controller uses.
        coord.col = narrow<std::uint32_t>(line % lines_per_row);
        const std::uint64_t row_unit = line / lines_per_row;
        std::uint32_t bank_global =
            narrow<std::uint32_t>(row_unit % total_banks);
        coord.row = row_unit / total_banks;
        if (config_.addr_map == AddrMap::XorPage) {
            // Permutation-based interleaving: fold low row bits into
            // the bank index.
            bank_global = narrow<std::uint32_t>(
                (bank_global ^ coord.row) % total_banks);
        }
        split(bank_global);
        return coord;
      }
    }
    panic("unknown address map");
}

bool
Dram::canIssue(LineAddr line, Cycle now) const
{
    const DramCoord coord = decode(line);
    const std::size_t refresh_unit =
        coord.channel * config_.ranks + coord.rank;
    if (config_.refresh_enabled && rank_blocked_to_[refresh_unit] > now)
        return false;
    return banks_[coord.bank].ready_at <= now;
}

bool
Dram::bankConflict(LineAddr a, LineAddr b) const
{
    const DramCoord ca = decode(a);
    const DramCoord cb = decode(b);
    return ca.bank == cb.bank && ca.row != cb.row;
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
    return std::max(ready,
                    rank_blocked_to_[coord.channel * config_.ranks +
                                     coord.rank]);
}

bool
Dram::rowOpen(LineAddr line) const
{
    const DramCoord coord = decode(line);
    const Bank &bank = banks_[coord.bank];
    return bank.open && bank.open_row == coord.row;
}

Cycle
Dram::applyRefresh(std::uint32_t refresh_unit, Cycle start)
{
    if (!config_.refresh_enabled)
        return start;
    // Lazy refresh: when a command finds the rank past its refresh
    // deadline, charge the refresh first and push the command behind
    // the tRFC window.
    while (start >= next_refresh_[refresh_unit]) {
        const Cycle refresh_start =
            std::max(next_refresh_[refresh_unit],
                     rank_blocked_to_[refresh_unit]);
        rank_blocked_to_[refresh_unit] =
            refresh_start + inCpu(config_.t_rfc);
        next_refresh_[refresh_unit] += inCpu(config_.t_refi);
        refreshes_.inc();
    }
    return std::max(start, rank_blocked_to_[refresh_unit]);
}

Cycle
Dram::issue(LineAddr line, bool is_write, bool is_prefetch, Cycle now)
{
    const DramCoord coord = decode(line);
    Bank &bank = banks_[coord.bank];

    Cycle start = std::max(now, bank.ready_at);
    start = applyRefresh(coord.channel * config_.ranks + coord.rank,
                         start);

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
    Cycle &bus_free = bus_free_at_[coord.channel];
    Cycle data_start = std::max(col_start + access, bus_free);
    const Cycle done = data_start + inCpu(config_.t_burst);
    bus_free = done;

    // Column commands to the same open row pipeline at the CAS-to-CAS
    // gap (one burst), not at the full data-return latency; the data
    // bus model above provides the global serialization. Writes add
    // the write-recovery window before the bank may precharge or read.
    const Cycle cas_issued = data_start - access;
    bank.ready_at = cas_issued + inCpu(config_.t_burst);
    if (is_write)
        bank.ready_at = std::max(bank.ready_at,
                                 done + inCpu(config_.t_wr));

    if (config_.page_policy == PagePolicy::Closed) {
        // Auto-precharge: the row closes after the access; the bank
        // accepts a fresh ACT once tRAS and tRP are honored.
        bank.open = false;
        bank.ready_at = std::max(
            bank.ready_at,
            bank.activated_at + inCpu(config_.t_ras) +
                inCpu(config_.t_rp));
    }
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
    io.vecU64(bus_free_at_, "dram channel count mismatch");
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
