// Fixture: a host that dispatches core effects with its own switch
// instead of going through core::dispatchEffects (core/Host.h), so its
// persist-before-act pre-pass and per-kind handling can drift from the
// other hosts'. The switch over Msg::Kind below is fine: only effect
// dispatch is reserved to the host contract.
namespace fixture {
namespace core {

struct Effect {
  enum class Kind { Send, SetTimer, Persist };
  Kind K = Kind::Send;
};

struct Msg {
  enum class Kind { RequestVote, AppendEntries };
  Kind K = Kind::RequestVote;
};

} // namespace core

int frameTag(const core::Msg &M) {
  switch (M.K) {
  case core::Msg::Kind::RequestVote:
    return 1;
  case core::Msg::Kind::AppendEntries:
    return 2;
  }
  return 0;
}

// LINT-EXPECT: effect-dispatch
int handle(const core::Effect &E) {
  switch (E.K) {
  case core::Effect::Kind::Send:
    return 1;
  case core::Effect::Kind::SetTimer:
    return 2;
  case core::Effect::Kind::Persist:
    return 3;
  }
  return 0;
}

} // namespace fixture
