// Fixture: read policy consulting the wall clock. Lease arithmetic
// and retry decisions must be functions of caller-supplied time — a
// read layer that reads steady_clock itself could never be replayed by
// the chaos rig or exhausted by the model checker, and a self-timed
// lease check is exactly the stale-read bug the protocol exists to
// prevent.
#include <chrono>

namespace fixture {

unsigned long readerTimesItsOwnLease() {
  // LINT-EXPECT: purity-token
  auto T = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<unsigned long>(T.count());
}

} // namespace fixture
