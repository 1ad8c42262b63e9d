//===- perfbench/Probes.cpp - Spans and layer decorators ----------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Probes.h"

#include "rt/Wire.h"

#include <cstdio>
#include <functional>
#include <thread>

using namespace adore;
using namespace perfbench;

namespace {

thread_local uint64_t CurrentOp = 0;

uint64_t threadTag() {
  return static_cast<uint64_t>(
      std::hash<std::thread::id>()(std::this_thread::get_id()));
}

uint64_t frameHash(const std::string &Frame) {
  uint64_t H = 1469598103934665603ULL;
  for (unsigned char C : Frame) {
    H ^= C;
    H *= 1099511628211ULL;
  }
  return H;
}

} // namespace

double BoundaryStat::meanUs() const {
  uint64_t C = Calls.load();
  return C ? static_cast<double>(Ns.load()) / 1000.0 / static_cast<double>(C)
           : 0.0;
}

void Tracer::keep(const Span &S) {
  size_t &N = PerName[S.Name];
  if (Spans.size() >= MaxSpans || N >= MaxSpansPerName) {
    Dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ++N;
  Spans.push_back(S);
}

void Tracer::record(const char *Name, uint64_t StartNs, uint64_t EndNs,
                    BoundaryStat &Stat) {
  Stat.add(EndNs - StartNs);
  uint64_t Id = NextId.fetch_add(1, std::memory_order_relaxed);
  Span S{Name, StartNs, EndNs, threadTag(), Id, CurrentOp};
  sync::MutexLock Lock(Mu);
  keep(S);
}

size_t Tracer::kept() const {
  sync::MutexLock Lock(Mu);
  return Spans.size();
}

bool Tracer::writeTsv(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "name\tstart_ns\tend_ns\tthread\tid\tparent\n");
  sync::MutexLock Lock(Mu);
  for (const Span &S : Spans)
    std::fprintf(F, "%s\t%llu\t%llu\t%llx\t%llu\t%llu\n", S.Name,
                 static_cast<unsigned long long>(S.StartNs),
                 static_cast<unsigned long long>(S.EndNs),
                 static_cast<unsigned long long>(S.Thread),
                 static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent));
  return std::fclose(F) == 0;
}

Tracer::ClientOp::ClientOp(Tracer *T, const char *Name, BoundaryStat *Stat)
    : T(T), Name(Name), Stat(Stat), StartNs(0), Id(0) {
  if (T) {
    StartNs = nowNs();
    Id = T->NextId.fetch_add(1, std::memory_order_relaxed);
    CurrentOp = Id;
  }
}

Tracer::ClientOp::~ClientOp() {
  if (!T)
    return;
  CurrentOp = 0;
  uint64_t End = nowNs();
  Stat->add(End - StartNs);
  Span S{Name, StartNs, End, threadTag(), Id, 0};
  sync::MutexLock Lock(T->Mu);
  T->keep(S);
}

void TracedTransport::attach(NodeId Id, Handler H) {
  Inner.attach(Id, [this, Id, H = std::move(H)](std::string Frame) {
    uint64_t Start = nowNs();
    uint64_t Key = frameHash(Frame);
    {
      sync::MutexLock Lock(P.Mu);
      auto It = P.InFlight.find({Id, Key});
      if (It != P.InFlight.end() && !It->second.empty()) {
        P.DeliveryUs.push_back(
            static_cast<double>(Start - It->second.front()) / 1000.0);
        It->second.pop_front();
        if (It->second.empty())
          P.InFlight.erase(It);
      }
    }
    H(std::move(Frame));
    T.record("transport.handler", Start, nowNs(), P.Handler);
  });
}

void TracedTransport::post(NodeId To, std::string Frame) {
  core::Msg M;
  uint64_t D0 = nowNs();
  bool Ok = rt::decodeMsg(Frame, M);
  uint64_t D1 = nowNs();
  T.record("wire.decode", D0, D1, P.Decode);
  if (Ok) {
    uint64_t E0 = nowNs();
    std::string Again = rt::encodeMsg(M);
    T.record("wire.encode", E0, nowNs(), P.Encode);
    if (M.K == core::Msg::Kind::AppendEntries) {
      P.AppendFrames.fetch_add(1, std::memory_order_relaxed);
      P.EntriesShipped.fetch_add(M.Entries.size(), std::memory_order_relaxed);
    } else if (M.K == core::Msg::Kind::ReadIndexQuery ||
               M.K == core::Msg::Kind::ReadIndexReply) {
      P.ReadFrames.fetch_add(1, std::memory_order_relaxed);
    }
  }
  P.Bytes.fetch_add(Frame.size(), std::memory_order_relaxed);
  uint64_t Start = nowNs();
  {
    sync::MutexLock Lock(P.Mu);
    P.InFlight[{To, frameHash(Frame)}].push_back(Start);
  }
  Inner.post(To, std::move(Frame));
  T.record("transport.post", Start, nowNs(), P.Post);
}

bool TracedVfs::append(const std::string &Path, const std::string &Bytes) {
  uint64_t Start = nowNs();
  bool Ok = Inner.append(Path, Bytes);
  T.record("store.append", Start, nowNs(), P.Append);
  P.Bytes.fetch_add(Bytes.size(), std::memory_order_relaxed);
  // NodeStore writes a snapshot to "<dir>/snap.tmp" and renames it.
  if (Path.size() >= 8 && Path.compare(Path.size() - 8, 8, "snap.tmp") == 0)
    P.SnapshotBytes.fetch_add(Bytes.size(), std::memory_order_relaxed);
  return Ok;
}

bool TracedVfs::sync(const std::string &Path) {
  uint64_t Start = nowNs();
  bool Ok = Inner.sync(Path);
  T.record("store.sync", Start, nowNs(), P.Sync);
  return Ok;
}
