//===- net/TcpTransport.h - Loopback TCP transport backend ----*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The real-socket implementation of the rt::Transport seam: every
/// attached endpoint gets a loopback TCP listener on an ephemeral port
/// (the in-process port registry replaces DNS), and post() lazily dials
/// a per-destination connection, queues length-framed bytes, and lets a
/// single epoll loop thread flush them with vectored writev. Reads are
/// reassembled by net::FrameSplitter and delivered to the endpoint's
/// handler on the loop thread; a handler may post, and its frames leave
/// before the loop next sleeps.
///
/// Semantics match the in-process Bus deliberately — best-effort
/// datagram-over-stream: frames to unattached ids are dropped, a
/// dropped connection loses whatever the kernel had not accepted and is
/// re-dialed on the next service pass (reconnect-on-drop), and per
/// (sender, destination) pair delivered frames arrive in post() order.
/// The consensus layer above tolerates all of it by design.
///
/// Threading: attach()/post() run on caller threads and only touch the
/// mutex-guarded registry/queues (plus thread-safe epoll_ctl for
/// attach's listener). ALL socket I/O, connection state, and handler
/// dispatch happen on the one loop thread; detach() rendezvouses with
/// it, so after detach returns the handler is never invoked again.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_NET_TCPTRANSPORT_H
#define ADORE_NET_TCPTRANSPORT_H

#include "net/Framing.h"
#include "rt/Transport.h"
#include "support/Ids.h"
#include "support/Sync.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace adore {
namespace net {

/// Tuning knobs; the defaults suit tests and loopback benches.
struct TcpTransportOptions {
  /// Per-destination cap on queued-but-unsent bytes; past it, post()
  /// drops frames (datagram semantics — backpressure never blocks a
  /// thread stepping a node).
  size_t MaxQueuedBytesPerPeer = size_t(1) << 25;
  /// Backoff before re-dialing a destination whose connection dropped
  /// or refused.
  uint64_t ReconnectDelayUs = 2000;
};

/// Counters for tests and bench reports (monotone, racy-read safe).
struct TcpTransportStats {
  uint64_t FramesDelivered = 0;
  uint64_t FramesDropped = 0;
  uint64_t BytesSent = 0;
  uint64_t BytesReceived = 0;
  uint64_t Dials = 0;
  uint64_t Accepts = 0;
  uint64_t ConnectionDrops = 0;
};

/// See the file comment. One instance is one fabric: endpoints attached
/// to different instances cannot reach each other (separate port
/// registries), exactly like two disjoint buses.
class TcpTransport final : public rt::Transport {
public:
  explicit TcpTransport(TcpTransportOptions Opts = {});
  ~TcpTransport() override;

  TcpTransport(const TcpTransport &) = delete;
  TcpTransport &operator=(const TcpTransport &) = delete;

  void attach(NodeId Id, Handler H) override;
  void detach(NodeId Id) override;
  void post(NodeId To, std::string Frame) override;

  /// The loopback port \p Id's listener is bound to, or 0 if not
  /// attached. Test introspection.
  uint16_t listenPort(NodeId Id) const;

  TcpTransportStats stats() const;

private:
  /// One attached endpoint: its listener and delivery handler.
  struct Endpoint {
    int ListenFd = -1;
    uint16_t Port = 0;
    Handler Deliver;
  };

  /// One outgoing connection's state, keyed by destination id.
  struct Peer {
    int Fd = -1;
    bool Connecting = false; ///< connect() in flight (EINPROGRESS).
    bool WantWrite = false;  ///< EPOLLOUT armed (partial flush pending).
    std::deque<std::string> WriteQ; ///< Framed bytes, oldest first.
    size_t HeadOffset = 0; ///< Sent prefix of WriteQ.front().
    size_t QueuedBytes = 0;
    uint64_t RetryAtUs = 0; ///< Earliest re-dial time (monotonic us).
  };

  /// One accepted inbound connection: frames on it are destined for
  /// the endpoint whose listener accepted it.
  struct Inbound {
    NodeId Dest = InvalidNodeId;
    FrameSplitter Splitter;
  };

  /// What an fd in the epoll set is; events carry the fd only.
  enum class FdKind : uint8_t { Wake, Listen, Inbound, Outgoing };
  struct FdInfo {
    FdKind Kind = FdKind::Wake;
    NodeId Id = InvalidNodeId; ///< Endpoint (Listen/Inbound) or peer.
  };

  void loop();
  /// Loop thread: drain pending detach requests; returns true if any
  /// were processed (waiters need a notify).
  bool processCommands() ADORE_REQUIRES(Mu);
  /// Loop thread: accept everything pending on a listener.
  void acceptAll(NodeId Dest, int ListenFd);
  /// Loop thread: read an inbound connection dry, dispatching frames.
  void serviceInbound(int Fd);
  /// Loop thread: dial/flush every peer with queued bytes whose retry
  /// time has passed. Returns the earliest future retry time (0 if
  /// none).
  uint64_t servicePeers();
  /// Loop thread: flush one peer's write queue with writev. Returns
  /// false if the connection died (already torn down).
  bool flushPeer(NodeId To, Peer &P) ADORE_REQUIRES(Mu);
  /// Loop thread: start a non-blocking dial toward \p To. Returns false
  /// if the destination is unknown (queue dropped).
  bool dialPeer(NodeId To, Peer &P) ADORE_REQUIRES(Mu);
  /// Loop thread: tear down a peer's connection and schedule a re-dial.
  void dropPeerConnection(NodeId To, Peer &P, bool Backoff)
      ADORE_REQUIRES(Mu);
  /// Loop thread: close an inbound connection.
  void closeInbound(int Fd) ADORE_REQUIRES(Mu);

  uint64_t nowUs() const;
  void wakeLoop();

  TcpTransportOptions Opts;

  mutable sync::Mutex Mu;
  std::map<NodeId, Endpoint> Endpoints ADORE_GUARDED_BY(Mu);
  std::map<NodeId, Peer> Peers ADORE_GUARDED_BY(Mu);
  std::map<int, Inbound> Inbounds ADORE_GUARDED_BY(Mu);
  std::map<int, FdInfo> Fds ADORE_GUARDED_BY(Mu);
  /// Detach rendezvous: ids queued for the loop thread to retire, and
  /// the generation counter it bumps when the queue is drained.
  std::vector<NodeId> DetachQ ADORE_GUARDED_BY(Mu);
  uint64_t DetachGenRequested ADORE_GUARDED_BY(Mu) = 0;
  uint64_t DetachGenDone ADORE_GUARDED_BY(Mu) = 0;
  bool Stop ADORE_GUARDED_BY(Mu) = false;
  sync::CondVar Cv;

  int EpollFd = -1; ///< Immutable after construction.
  int WakeFd = -1;  ///< Immutable after construction.

  std::atomic<uint64_t> FramesDelivered{0};
  std::atomic<uint64_t> FramesDropped{0};
  std::atomic<uint64_t> BytesSent{0};
  std::atomic<uint64_t> BytesReceived{0};
  std::atomic<uint64_t> Dials{0};
  std::atomic<uint64_t> Accepts{0};
  std::atomic<uint64_t> ConnectionDrops{0};

  std::thread Loop; ///< Started last in the ctor, joined in the dtor.
};

} // namespace net
} // namespace adore

#endif // ADORE_NET_TCPTRANSPORT_H
