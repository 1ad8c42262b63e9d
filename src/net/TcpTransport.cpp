//===- net/TcpTransport.cpp - Loopback TCP transport backend ----------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "net/TcpTransport.h"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

using namespace adore;
using namespace adore::net;

namespace {

/// The one place the POSIX sockaddr aliasing contract is honored.
/// adore_lint allowlists this file for decode-cast: the cast converts
/// an address we built, not untrusted bytes we received.
sockaddr *asSockaddr(sockaddr_in &A) {
  return reinterpret_cast<sockaddr *>(&A);
}

sockaddr_in loopbackAddr(uint16_t Port) {
  sockaddr_in A;
  std::memset(&A, 0, sizeof(A));
  A.sin_family = AF_INET;
  A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  A.sin_port = htons(Port);
  return A;
}

void setNoDelay(int Fd) {
  int One = 1;
  (void)setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
}

/// writev batches at most this many queued frames per syscall.
constexpr int MaxIov = 64;

} // namespace

TcpTransport::TcpTransport(TcpTransportOptions Opts) : Opts(Opts) {
  EpollFd = epoll_create1(EPOLL_CLOEXEC);
  WakeFd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  {
    sync::MutexLock Lock(Mu);
    Fds[WakeFd] = FdInfo{FdKind::Wake, InvalidNodeId};
  }
  epoll_event Ev{};
  Ev.events = EPOLLIN;
  Ev.data.fd = WakeFd;
  (void)epoll_ctl(EpollFd, EPOLL_CTL_ADD, WakeFd, &Ev);
  Loop = std::thread([this] { loop(); });
}

TcpTransport::~TcpTransport() {
  {
    sync::MutexLock Lock(Mu);
    Stop = true;
  }
  wakeLoop();
  if (Loop.joinable())
    Loop.join();
  sync::MutexLock Lock(Mu);
  for (const auto &KV : Fds)
    (void)::close(KV.first);
  Fds.clear();
  (void)::close(EpollFd);
}

uint64_t TcpTransport::nowUs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void TcpTransport::wakeLoop() {
  uint64_t One = 1;
  (void)!::write(WakeFd, &One, sizeof(One));
}

void TcpTransport::attach(NodeId Id, Handler H) {
  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return;
  sockaddr_in A = loopbackAddr(0);
  if (::bind(Fd, asSockaddr(A), sizeof(A)) != 0 || ::listen(Fd, 128) != 0) {
    (void)::close(Fd);
    return;
  }
  socklen_t Len = sizeof(A);
  (void)::getsockname(Fd, asSockaddr(A), &Len);
  uint16_t Port = ntohs(A.sin_port);

  sync::MutexLock Lock(Mu);
  // Replacing an endpoint retires its old listener; established inbound
  // connections keep delivering (to the new handler — the destination
  // id is what names them).
  auto It = Endpoints.find(Id);
  if (It != Endpoints.end() && It->second.ListenFd >= 0) {
    Fds.erase(It->second.ListenFd);
    (void)::close(It->second.ListenFd); // close() drops it from epoll.
  }
  Endpoint &E = Endpoints[Id];
  E.ListenFd = Fd;
  E.Port = Port;
  E.Deliver = std::move(H);
  Fds[Fd] = FdInfo{FdKind::Listen, Id};
  epoll_event Ev{};
  Ev.events = EPOLLIN;
  Ev.data.fd = Fd;
  (void)epoll_ctl(EpollFd, EPOLL_CTL_ADD, Fd, &Ev);
}

void TcpTransport::detach(NodeId Id) {
  sync::MutexLock Lock(Mu);
  if (Stop)
    return; // Loop gone; dtor closes everything.
  DetachQ.push_back(Id);
  uint64_t Gen = ++DetachGenRequested;
  wakeLoop();
  // Rendezvous: once the loop thread has drained this request, no
  // handler invocation for Id can be in flight (dispatch happens only
  // on that thread, between command drains).
  while (DetachGenDone < Gen && !Stop)
    Cv.wait(Mu);
}

void TcpTransport::post(NodeId To, std::string Frame) {
  if (!frameable(Frame)) {
    FramesDropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  bool NeedWake = false;
  {
    sync::MutexLock Lock(Mu);
    if (Stop || Endpoints.find(To) == Endpoints.end()) {
      // Unknown destination: dropped like a packet to a dead host.
      FramesDropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Peer &P = Peers[To];
    size_t Framed = Frame.size() + FrameHeaderBytes;
    if (P.QueuedBytes + Framed > Opts.MaxQueuedBytesPerPeer) {
      FramesDropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    std::string Bytes;
    Bytes.reserve(Framed);
    appendFrame(Bytes, Frame);
    P.WriteQ.push_back(std::move(Bytes));
    P.QueuedBytes += Framed;
    // The loop only sleeps once every queued peer is armed (EPOLLOUT or
    // a retry timeout), so a wake is needed exactly on the empty ->
    // non-empty transition.
    NeedWake = P.WriteQ.size() == 1;
  }
  if (NeedWake)
    wakeLoop();
}

uint16_t TcpTransport::listenPort(NodeId Id) const {
  sync::MutexLock Lock(Mu);
  auto It = Endpoints.find(Id);
  return It == Endpoints.end() ? 0 : It->second.Port;
}

TcpTransportStats TcpTransport::stats() const {
  TcpTransportStats S;
  S.FramesDelivered = FramesDelivered.load(std::memory_order_relaxed);
  S.FramesDropped = FramesDropped.load(std::memory_order_relaxed);
  S.BytesSent = BytesSent.load(std::memory_order_relaxed);
  S.BytesReceived = BytesReceived.load(std::memory_order_relaxed);
  S.Dials = Dials.load(std::memory_order_relaxed);
  S.Accepts = Accepts.load(std::memory_order_relaxed);
  S.ConnectionDrops = ConnectionDrops.load(std::memory_order_relaxed);
  return S;
}

bool TcpTransport::processCommands() {
  if (DetachQ.empty())
    return false;
  for (NodeId Id : DetachQ) {
    auto It = Endpoints.find(Id);
    if (It != Endpoints.end()) {
      if (It->second.ListenFd >= 0) {
        Fds.erase(It->second.ListenFd);
        (void)::close(It->second.ListenFd);
      }
      Endpoints.erase(It);
    }
    // Inbound connections destined for the endpoint die with it.
    for (auto CI = Inbounds.begin(); CI != Inbounds.end();) {
      if (CI->second.Dest == Id) {
        Fds.erase(CI->first);
        (void)::close(CI->first);
        CI = Inbounds.erase(CI);
      } else {
        ++CI;
      }
    }
    // Our outgoing connection toward it, and anything still queued, are
    // dropped (datagram semantics); a later re-attach re-dials fresh.
    auto PI = Peers.find(Id);
    if (PI != Peers.end()) {
      Peer &P = PI->second;
      if (P.Fd >= 0) {
        Fds.erase(P.Fd);
        (void)::close(P.Fd);
      }
      FramesDropped.fetch_add(P.WriteQ.size(), std::memory_order_relaxed);
      Peers.erase(PI);
    }
  }
  DetachQ.clear();
  DetachGenDone = DetachGenRequested;
  return true;
}

void TcpTransport::acceptAll(NodeId Dest, int ListenFd) {
  for (;;) {
    int Fd = ::accept4(ListenFd, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (Fd < 0)
      return; // EAGAIN, or the listener was concurrently retired.
    setNoDelay(Fd);
    Accepts.fetch_add(1, std::memory_order_relaxed);
    {
      sync::MutexLock Lock(Mu);
      Inbounds[Fd] = Inbound{Dest, FrameSplitter{}};
      Fds[Fd] = FdInfo{FdKind::Inbound, Dest};
    }
    epoll_event Ev{};
    Ev.events = EPOLLIN;
    Ev.data.fd = Fd;
    (void)epoll_ctl(EpollFd, EPOLL_CTL_ADD, Fd, &Ev);
  }
}

void TcpTransport::serviceInbound(int Fd) {
  char Buf[65536];
  for (;;) {
    ssize_t R = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (R > 0) {
      BytesReceived.fetch_add(static_cast<uint64_t>(R),
                              std::memory_order_relaxed);
      std::vector<std::string> Frames;
      Handler Deliver;
      bool StreamOk = true;
      {
        sync::MutexLock Lock(Mu);
        auto It = Inbounds.find(Fd);
        if (It == Inbounds.end())
          return;
        StreamOk = It->second.Splitter.feed(
            Buf, static_cast<size_t>(R),
            [&Frames](std::string F) { Frames.push_back(std::move(F)); });
        auto EI = Endpoints.find(It->second.Dest);
        if (EI != Endpoints.end())
          Deliver = EI->second.Deliver;
      }
      if (Deliver) {
        for (std::string &F : Frames) {
          FramesDelivered.fetch_add(1, std::memory_order_relaxed);
          Deliver(std::move(F));
        }
      } else {
        FramesDropped.fetch_add(Frames.size(), std::memory_order_relaxed);
      }
      if (!StreamOk) {
        // Poisoned framing: nothing after a bogus header can be
        // trusted; drop the connection like a corrupt packet.
        sync::MutexLock Lock(Mu);
        closeInbound(Fd);
        return;
      }
      // A short read drained the socket for now; epoll is level-
      // triggered and reports it again if more bytes arrive.
      if (static_cast<size_t>(R) < sizeof(Buf))
        return;
      continue;
    }
    if (R < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return;
    if (R < 0 && errno == EINTR)
      continue;
    // EOF or error: the sender's side is gone.
    sync::MutexLock Lock(Mu);
    closeInbound(Fd);
    return;
  }
}

void TcpTransport::closeInbound(int Fd) {
  auto It = Inbounds.find(Fd);
  if (It == Inbounds.end())
    return;
  Fds.erase(Fd);
  Inbounds.erase(It);
  (void)::close(Fd);
}

bool TcpTransport::dialPeer(NodeId To, Peer &P) {
  auto It = Endpoints.find(To);
  if (It == Endpoints.end()) {
    // Destination vanished since the frames were queued: drop them.
    FramesDropped.fetch_add(P.WriteQ.size(), std::memory_order_relaxed);
    P.WriteQ.clear();
    P.QueuedBytes = 0;
    P.HeadOffset = 0;
    return false;
  }
  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (Fd < 0) {
    P.RetryAtUs = nowUs() + Opts.ReconnectDelayUs;
    return true;
  }
  setNoDelay(Fd);
  sockaddr_in A = loopbackAddr(It->second.Port);
  int R = ::connect(Fd, asSockaddr(A), sizeof(A));
  if (R != 0 && errno != EINPROGRESS) {
    (void)::close(Fd);
    P.RetryAtUs = nowUs() + Opts.ReconnectDelayUs;
    return true;
  }
  Dials.fetch_add(1, std::memory_order_relaxed);
  P.Fd = Fd;
  P.Connecting = R != 0;
  P.WantWrite = true;
  Fds[Fd] = FdInfo{FdKind::Outgoing, To};
  epoll_event Ev{};
  Ev.events = EPOLLIN | EPOLLOUT;
  Ev.data.fd = Fd;
  (void)epoll_ctl(EpollFd, EPOLL_CTL_ADD, Fd, &Ev);
  return true;
}

void TcpTransport::dropPeerConnection(NodeId To, Peer &P, bool Backoff) {
  (void)To;
  if (P.Fd >= 0) {
    Fds.erase(P.Fd);
    (void)::close(P.Fd);
    P.Fd = -1;
    ConnectionDrops.fetch_add(1, std::memory_order_relaxed);
  }
  P.Connecting = false;
  P.WantWrite = false;
  if (P.HeadOffset != 0) {
    // A partially-sent frame cannot resume on a fresh connection (the
    // receiver starts at a frame boundary); it is lost with the link.
    P.QueuedBytes -= P.WriteQ.front().size() - P.HeadOffset;
    P.WriteQ.pop_front();
    P.HeadOffset = 0;
    FramesDropped.fetch_add(1, std::memory_order_relaxed);
  }
  if (Backoff)
    P.RetryAtUs = nowUs() + Opts.ReconnectDelayUs;
}

bool TcpTransport::flushPeer(NodeId To, Peer &P) {
  if (P.Fd < 0 || P.Connecting)
    return true;
  while (P.QueuedBytes != 0) {
    iovec Iov[MaxIov];
    int NIov = 0;
    size_t Off = P.HeadOffset;
    for (auto It = P.WriteQ.begin(); It != P.WriteQ.end() && NIov != MaxIov;
         ++It) {
      Iov[NIov].iov_base = It->data() + Off;
      Iov[NIov].iov_len = It->size() - Off;
      ++NIov;
      Off = 0;
    }
    ssize_t W = ::writev(P.Fd, Iov, NIov);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        break; // Kernel buffer full: EPOLLOUT will resume us.
      dropPeerConnection(To, P, /*Backoff=*/true);
      return false;
    }
    BytesSent.fetch_add(static_cast<uint64_t>(W), std::memory_order_relaxed);
    size_t Left = static_cast<size_t>(W);
    while (Left != 0) {
      std::string &Front = P.WriteQ.front();
      size_t Avail = Front.size() - P.HeadOffset;
      if (Left >= Avail) {
        Left -= Avail;
        P.QueuedBytes -= Avail;
        P.WriteQ.pop_front();
        P.HeadOffset = 0;
      } else {
        P.HeadOffset += Left;
        P.QueuedBytes -= Left;
        Left = 0;
      }
    }
  }
  bool Want = P.QueuedBytes != 0;
  if (Want != P.WantWrite) {
    P.WantWrite = Want;
    epoll_event Ev{};
    Ev.events = EPOLLIN | (Want ? EPOLLOUT : 0u);
    Ev.data.fd = P.Fd;
    (void)epoll_ctl(EpollFd, EPOLL_CTL_MOD, P.Fd, &Ev);
  }
  return true;
}

uint64_t TcpTransport::servicePeers() {
  sync::MutexLock Lock(Mu);
  uint64_t Earliest = 0;
  uint64_t Now = nowUs();
  for (auto &KV : Peers) {
    Peer &P = KV.second;
    if (P.QueuedBytes == 0)
      continue;
    if (P.Fd < 0) {
      if (P.RetryAtUs > Now) {
        if (Earliest == 0 || P.RetryAtUs < Earliest)
          Earliest = P.RetryAtUs;
        continue;
      }
      if (!dialPeer(KV.first, P))
        continue;
    }
    if (P.Fd >= 0 && !P.Connecting)
      (void)flushPeer(KV.first, P);
  }
  return Earliest;
}

void TcpTransport::loop() {
  epoll_event Events[64];
  for (;;) {
    {
      sync::MutexLock Lock(Mu);
      if (processCommands())
        Cv.notifyAll();
      if (Stop) {
        // Release any detach() still parked on the rendezvous.
        DetachGenDone = DetachGenRequested;
        Cv.notifyAll();
        return;
      }
    }
    uint64_t NextRetryUs = servicePeers();
    int TimeoutMs = -1;
    if (NextRetryUs != 0) {
      uint64_t Now = nowUs();
      TimeoutMs = NextRetryUs > Now
                      ? static_cast<int>((NextRetryUs - Now) / 1000 + 1)
                      : 0;
    }
    int N = ::epoll_wait(EpollFd, Events, 64, TimeoutMs);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return;
    }
    for (int I = 0; I != N; ++I) {
      int Fd = Events[I].data.fd;
      uint32_t Ev = Events[I].events;
      FdKind Kind;
      NodeId Id;
      {
        sync::MutexLock Lock(Mu);
        auto It = Fds.find(Fd);
        if (It == Fds.end())
          continue; // Stale event for an fd already retired.
        Kind = It->second.Kind;
        Id = It->second.Id;
      }
      switch (Kind) {
      case FdKind::Wake: {
        // One read returns the counter and zeroes it.
        uint64_t V;
        (void)!::read(WakeFd, &V, sizeof(V));
        break;
      }
      case FdKind::Listen:
        acceptAll(Id, Fd);
        break;
      case FdKind::Inbound:
        serviceInbound(Fd);
        break;
      case FdKind::Outgoing: {
        sync::MutexLock Lock(Mu);
        auto It = Peers.find(Id);
        if (It == Peers.end() || It->second.Fd != Fd)
          break;
        Peer &P = It->second;
        if ((Ev & (EPOLLERR | EPOLLHUP)) != 0) {
          dropPeerConnection(Id, P, /*Backoff=*/true);
          break;
        }
        if (P.Connecting) {
          int Err = 0;
          socklen_t Len = sizeof(Err);
          (void)::getsockopt(Fd, SOL_SOCKET, SO_ERROR, &Err, &Len);
          if (Err != 0) {
            dropPeerConnection(Id, P, /*Backoff=*/true);
            break;
          }
          P.Connecting = false;
        }
        if ((Ev & EPOLLIN) != 0) {
          // The receiver never writes back on our outgoing connection;
          // readable means EOF or reset.
          char Probe[64];
          ssize_t R = ::recv(Fd, Probe, sizeof(Probe), 0);
          if (R == 0 || (R < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                         errno != EINTR)) {
            dropPeerConnection(Id, P, /*Backoff=*/true);
            break;
          }
        }
        (void)flushPeer(Id, P);
        break;
      }
      }
    }
  }
}
