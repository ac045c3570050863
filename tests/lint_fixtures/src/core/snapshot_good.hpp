#ifndef FIXTURE_SNAPSHOT_GOOD_HPP
#define FIXTURE_SNAPSHOT_GOOD_HPP

// True negatives for snapshot-field-coverage: every dynamic member is
// named in snapshot() (directly or through a private helper), every
// exemption class is represented, a stateless class needs no
// snapshot(), and an empty snapshot() opts out explicitly. This file
// must produce zero findings.

namespace fix
{

class CoveredCounter : public Snapshottable
{
  protected:
    void
    snapshot(SnapshotIo &io) override
    {
        io.u64(ticks_);
        snapshotTable(io);
    }

  private:
    void
    snapshotTable(SnapshotIo &io)
    {
        io.u64(table_);
    }

    unsigned long ticks_ = 0;
    unsigned long table_ = 0; //!< covered transitively via the helper
    static int live_counters;    // exempt: static
    const int limit_ = 8;        // exempt: const
    FixConfig config_;           // exempt: *Config*-typed
    Sink *sink_ = nullptr;       // exempt: raw pointer (wiring)
    Sink &owner_;                // exempt: reference (wiring)
    // asdlint:allow(snapshot-field-coverage): derived from config_ when the counter is rebuilt
    unsigned long derived_ = 0;
};

/**
 * Composite snapshottable delegating to a nested snapshottable
 * member — the OS kernel idiom (io.component(pool_)). Naming the
 * member is full coverage; no findings.
 */
class NestedOwner : public Snapshottable
{
  protected:
    void
    snapshot(SnapshotIo &io) override
    {
        io.component(pool_);
        io.u64(hand_);
    }

  private:
    CoveredCounter pool_;
    unsigned long hand_ = 0;
    // asdlint:allow(snapshot-field-coverage): hand-out permutation derived from the seed at construction
    unsigned long free_order_ = 0;
};

/** No members, so the inherited empty snapshot() is complete. */
class Stateless : public Snapshottable
{
  public:
    int twice(int v) const { return 2 * v; }
};

/** Empty snapshot() = explicit never-checkpointed opt-out. */
class BenchTap : public Snapshottable
{
  public:
    void snapshot(SnapshotIo &) override {}

  private:
    unsigned long reads_ = 0;
    unsigned long epochs_ = 0;
};

} // namespace fix

#endif // FIXTURE_SNAPSHOT_GOOD_HPP
