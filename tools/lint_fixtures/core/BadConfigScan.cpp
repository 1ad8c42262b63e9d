// Fixture: the core answering "which configuration is in force?" with
// the shared backwards log scan instead of its configuration history,
// which makes every call cost O(log length). Calling a member function
// that happens to share the name is fine; only the raft:: helper (or a
// using-directive that would let it be called unqualified) is flagged.
#include <cstddef>
#include <vector>

namespace fixture {

struct Config {};
struct Entry {};

struct Core {
  std::vector<Entry> Log;
  Config Initial;

  const Config &configOfPrefix(size_t) const { return Initial; }

  // LINT-EXPECT: config-scan
  Config config() const {
    return raft::configOfPrefix(Log, Log.size(), Initial);
  }

  Config fast() const { return configOfPrefix(Log.size()); }
};

} // namespace fixture
