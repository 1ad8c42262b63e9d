//===- perfbench/Probes.h - Spans and layer decorators for the benchmark -===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the traced run measures, from the benchmark's own files only: a
/// span recorder, per-boundary counters, and decorators that sit on the
/// two public seams a request crosses below the core — rt::Transport
/// (passed to RtCluster as SharedNet) and store::Vfs (passed as
/// ExternalDisk). Nothing here changes what the program does; it times
/// calls into each layer's public functions.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_PERFBENCH_PROBES_H
#define ADORE_PERFBENCH_PROBES_H

#include "rt/Transport.h"
#include "store/Vfs.h"
#include "support/Sync.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Calls and time spent at one layer boundary.
struct BoundaryStat {
  std::atomic<uint64_t> Calls{0};
  std::atomic<uint64_t> Ns{0};

  void add(uint64_t DurNs) {
    Calls.fetch_add(1, std::memory_order_relaxed);
    Ns.fetch_add(DurNs, std::memory_order_relaxed);
  }
  /// Mean microseconds per call (0 if never called).
  double meanUs() const;
};

/// In-memory span recorder. A span is (name, start, end, thread, id,
/// parent); the parent is set when the span runs on a client thread
/// under a client op (see ClientOp). Spans are kept until writeTsv() at
/// the end of the run. Past MaxSpansPerName of one name, or MaxSpans in
/// all, they are counted but not kept, so a chatty boundary cannot
/// crowd out the others.
class Tracer {
public:
  static constexpr size_t MaxSpans = size_t(1) << 20;
  static constexpr size_t MaxSpansPerName = size_t(1) << 17;

  /// Records one finished span and adds it to \p Stat.
  void record(const char *Name, uint64_t StartNs, uint64_t EndNs,
              BoundaryStat &Stat);

  /// Writes every kept span as tab-separated lines; false on I/O error.
  bool writeTsv(const std::string &Path) const;

  size_t kept() const;
  uint64_t dropped() const { return Dropped.load(); }

  /// Scopes a client op on the calling thread: spans recorded on this
  /// thread until it ends get it as their parent. A null tracer makes
  /// it a no-op (untraced passes).
  class ClientOp {
  public:
    ClientOp(Tracer *T, const char *Name, BoundaryStat *Stat);
    ~ClientOp();
    ClientOp(const ClientOp &) = delete;
    ClientOp &operator=(const ClientOp &) = delete;

  private:
    Tracer *T;
    const char *Name;
    BoundaryStat *Stat;
    uint64_t StartNs;
    uint64_t Id;
  };

private:
  struct Span {
    const char *Name;
    uint64_t StartNs;
    uint64_t EndNs;
    uint64_t Thread;
    uint64_t Id;
    uint64_t Parent;
  };

  /// Keeps \p S unless a cap is reached.
  void keep(const Span &S) ADORE_REQUIRES(Mu);

  std::atomic<uint64_t> NextId{1};
  std::atomic<uint64_t> Dropped{0};
  mutable adore::sync::Mutex Mu;
  std::vector<Span> Spans ADORE_GUARDED_BY(Mu);
  /// Kept spans per name; names are string literals, keyed by address.
  std::map<const char *, size_t> PerName ADORE_GUARDED_BY(Mu);
};

/// Per-layer counters of the rt transport decorator.
struct TransportProbe {
  BoundaryStat Post;     ///< Time inside the wrapped post().
  BoundaryStat Handler;  ///< Time inside the attached handler.
  BoundaryStat Encode;   ///< rt::encodeMsg on every posted frame.
  BoundaryStat Decode;   ///< rt::decodeMsg on every posted frame.
  std::atomic<uint64_t> Bytes{0};
  std::atomic<uint64_t> AppendFrames{0};
  std::atomic<uint64_t> EntriesShipped{0};
  std::atomic<uint64_t> ReadFrames{0};

  adore::sync::Mutex Mu;
  /// Post time of every frame not yet delivered, keyed by (receiver,
  /// frame hash). The sender id is inside the frame, so equal keys are
  /// frames of one (sender, receiver) pair, delivered in post order.
  std::map<std::pair<adore::NodeId, uint64_t>, std::deque<uint64_t>>
      InFlight ADORE_GUARDED_BY(Mu);
  std::vector<double> DeliveryUs ADORE_GUARDED_BY(Mu);
};

/// rt::Transport decorator: counts and times every post() and handler
/// call, and decodes/re-encodes each frame through the wire codec to
/// time it and count AppendEntries traffic.
class TracedTransport final : public adore::rt::Transport {
public:
  TracedTransport(adore::rt::Transport &Inner, Tracer &T, TransportProbe &P)
      : Inner(Inner), T(T), P(P) {}

  void attach(adore::NodeId Id, Handler H) override;
  void detach(adore::NodeId Id) override { Inner.detach(Id); }
  void post(adore::NodeId To, std::string Frame) override;

private:
  adore::rt::Transport &Inner;
  Tracer &T;
  TransportProbe &P;
};

/// Per-layer counters of the store decorator.
struct VfsProbe {
  BoundaryStat Append;
  BoundaryStat Sync;
  std::atomic<uint64_t> Bytes{0};
  std::atomic<uint64_t> SnapshotBytes{0};
};

/// store::Vfs decorator: times append() and sync() and counts the bytes
/// written, separating snapshot writes (the tmp file a snapshot is
/// written to before its rename).
class TracedVfs final : public adore::store::Vfs {
public:
  TracedVfs(adore::store::Vfs &Inner, Tracer &T, VfsProbe &P)
      : Inner(Inner), T(T), P(P) {}

  bool append(const std::string &Path, const std::string &Bytes) override;
  bool readFile(const std::string &Path, std::string &Out) override {
    return Inner.readFile(Path, Out);
  }
  bool truncate(const std::string &Path, uint64_t Size) override {
    return Inner.truncate(Path, Size);
  }
  bool renameFile(const std::string &From, const std::string &To) override {
    return Inner.renameFile(From, To);
  }
  bool removeFile(const std::string &Path) override {
    return Inner.removeFile(Path);
  }
  bool exists(const std::string &Path) override { return Inner.exists(Path); }
  uint64_t fileSize(const std::string &Path) override {
    return Inner.fileSize(Path);
  }
  bool sync(const std::string &Path) override;
  std::vector<std::string> list(const std::string &Prefix) override {
    return Inner.list(Prefix);
  }

private:
  adore::store::Vfs &Inner;
  Tracer &T;
  VfsProbe &P;
};

} // namespace perfbench

#endif // ADORE_PERFBENCH_PROBES_H
