//===- rt/Transport.h - Abstract byte transport seam ----------*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport seam of the real-time runtime: a byte-oriented,
/// datagram-style point-to-point fabric. Endpoints attach a delivery
/// handler under a NodeId, any thread posts opaque serialized frames
/// (see rt/Wire.h) to a NodeId, and frames to ids nobody is attached
/// under are silently dropped — like packets to a dead host. Delivery
/// is best-effort and asynchronous; a returned post() says nothing
/// about arrival.
///
/// Implementations: rt::Bus (in-process, synchronous delivery on the
/// posting thread, which steps an idle RtNode receiver right there) and
/// net::TcpTransport (loopback TCP with an epoll loop, length-framed
/// streams, reconnect-on-drop). Hosts (RtNode) program against this
/// interface only, so the whole rt/chaos/bench stack runs unmodified
/// over either fabric.
///
/// Contract for implementations:
///  - attach(Id, H) replaces any previous handler for Id; the handler
///    must be invokable from arbitrary threads until detach(Id) (or the
///    transport's destruction) returns.
///  - detach(Id) ends delivery to Id: posts that observe the detach
///    drop their frames. A post already past its handler lookup may
///    still complete concurrently, so callers must keep the handler's
///    target alive until all posting threads have quiesced (hosts stop
///    every worker before tearing down any endpoint).
///  - post(To, Frame) never blocks on the receiver; per (sender,
///    receiver) pair, frames that do arrive arrive in post() order.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_RT_TRANSPORT_H
#define ADORE_RT_TRANSPORT_H

#include "support/Ids.h"

#include <functional>
#include <string>

namespace adore {
namespace rt {

/// Abstract point-to-point frame transport; see the file comment for
/// the endpoint-lifecycle and delivery contract.
class Transport {
public:
  using Handler = std::function<void(std::string Frame)>;

  virtual ~Transport() = default;

  /// Registers the delivery handler for \p Id, replacing any previous
  /// one. Handlers must be internally thread-safe.
  virtual void attach(NodeId Id, Handler H) = 0;

  /// Unregisters \p Id's handler; see the file comment for the
  /// quiescence caveat. Detaching an unknown id is a no-op.
  virtual void detach(NodeId Id) = 0;

  /// Posts \p Frame toward \p To, best-effort; drops it if nobody is
  /// attached under \p To.
  virtual void post(NodeId To, std::string Frame) = 0;
};

} // namespace rt
} // namespace adore

#endif // ADORE_RT_TRANSPORT_H
