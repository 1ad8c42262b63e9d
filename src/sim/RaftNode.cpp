//===- sim/RaftNode.cpp - Simulator host for the Raft core ------------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/RaftNode.h"

#include "store/NodeStore.h"

using namespace adore;
using namespace adore::sim;

RaftNode::RaftNode(NodeId Id, const ReconfigScheme &Scheme, Config InitialConf,
                   core::CoreOptions Opts, EventQueue &Queue, uint64_t Seed,
                   std::function<void(SimMsg)> Send, core::HostHooks Hooks,
                   store::NodeStore *Store)
    : Queue(&Queue), Core(Id, Scheme, std::move(InitialConf), Opts, Seed),
      SendFn(std::move(Send)), Hooks(std::move(Hooks)), Store(Store) {
  // Adopt whatever the store's directory already holds (usually nothing:
  // clusters start on fresh directories).
  if (Store)
    Store->recoverInto(Core, /*CheckAgainstCore=*/false);
}

void RaftNode::crash() {
  dispatch(Core.crash());
  if (Store)
    Store->crash(); // Power cut: the fault model mangles the directory.
}

void RaftNode::restart() {
  // Restarting a node that never crashed is a no-op; only a crashed
  // core may have durable state re-installed.
  if (Store && Core.isCrashed())
    for (const std::string &What :
         Store->recoverInto(Core, /*CheckAgainstCore=*/true))
      if (StoreViolations)
        StoreViolations->push_back("S" + std::to_string(Core.id()) +
                                   " store recovery: " + What);
  dispatch(Core.restart());
}

bool RaftNode::submit(MethodId Method, uint64_t ClientSeq) {
  core::Effects Effs;
  bool Accepted = Core.submit(Method, ClientSeq, Effs);
  dispatch(std::move(Effs));
  return Accepted;
}

bool RaftNode::requestReconfig(const Config &NewConf) {
  core::Effects Effs;
  bool Accepted = Core.requestReconfig(NewConf, Effs);
  dispatch(std::move(Effs));
  return Accepted;
}

bool RaftNode::transferLeadership(NodeId Target) {
  core::Effects Effs;
  bool Accepted = Core.transferLeadership(Target, Effs);
  dispatch(std::move(Effs));
  return Accepted;
}

bool RaftNode::read(uint64_t ReadId) {
  core::Effects Effs;
  bool Accepted = Core.readQuery(ReadId, nowUs(), Effs);
  dispatch(std::move(Effs));
  return Accepted;
}

void RaftNode::dispatch(core::Effects Effs) {
  // Store traffic consumes no virtual time and no cluster RNG draws, so
  // the event schedule is identical with the store on or off.
  struct Host : core::HostBase<store::NodeStore> {
    RaftNode &N;
    void send(SimMsg &&M) { N.SendFn(std::move(M)); }
    void setTimer(core::TimerId Timer, uint64_t Gen, uint64_t DelayUs) {
      // The scheduled callback re-enters the core with the generation it
      // was armed under; the core rejects it if superseded.
      RaftNode *Node = &N;
      N.Queue->scheduleAfter(DelayUs, [Node, Timer, Gen] {
        Node->dispatch(Node->Core.onTimer(Timer, Gen, Node->nowUs()));
      });
    }
    // Nothing to do: a stale firing is rejected by generation.
    void cancelTimer(core::TimerId) {}
  } H{{Core, Hooks, Store}, *this};
  core::dispatchEffects(Effs, H);
}
