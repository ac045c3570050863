#ifndef FIXTURE_SNAPSHOT_BAD_HPP
#define FIXTURE_SNAPSHOT_BAD_HPP

// True positives for snapshot-field-coverage: members snapshot()
// never names, a reason-less allow that must stay inert (the member
// still fires) and raise allow-missing-reason, and a class with state
// but no snapshot() at all.

namespace fix
{

class LeakyDetector : public Snapshottable
{
  protected:
    void
    snapshot(SnapshotIo &io) override
    {
        io.u64(hits_);
    }

  private:
    unsigned long hits_ = 0;   // covered: no finding
    unsigned long misses_ = 0; // never snapshotted
    unsigned long window_ = 0; // never snapshotted
    // asdlint:allow(snapshot-field-coverage)
    unsigned long scratch_ = 0; // reason-less allow: inert + flagged
};

/** Forgot snapshot(): its state is flagged member by member. */
class ForgetfulFilter : public Snapshottable
{
  public:
    void observe(unsigned long line) { last_ = line; }

  private:
    unsigned long last_ = 0; // never snapshotted
};

} // namespace fix

#endif // FIXTURE_SNAPSHOT_BAD_HPP
