// Fixture: read policy reaching into a runtime. The read layer names
// the tiers and what each asks of the core; hosts (sim, rt, chaos)
// move the bytes. A read file that includes rt has welded the policy
// to one runtime and made it untestable with scripted replies.
#include "rt/RtNode.h" // LINT-EXPECT: layering

namespace fixture {

int readerLeaksIntoRt() { return 1; }

} // namespace fixture
