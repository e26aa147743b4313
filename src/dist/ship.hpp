#pragma once

#include <memory>
#include <set>
#include <unordered_map>

#include "core/channel.hpp"
#include "core/process.hpp"
#include "dist/node.hpp"
#include "serial/serial.hpp"

/// Shipping live process graphs between servers (paper Section 4).
///
/// ship_process() serializes a Process (or CompositeProcess) for execution
/// on another node; receive_process() reconstructs it there.  The channel
/// endpoints the processes reference are carried along, and the network
/// connections needed to keep every cut channel flowing are established
/// automatically as a *side effect of serialization*, exactly as in the
/// paper:
///
///  * a channel wholly inside the shipped subgraph travels as a pair of
///    LocalPairStubs and is rebuilt as an ordinary local pipe (with its
///    unconsumed bytes) on the destination -- co-located processes never
///    talk through the network;
///  * a cut channel's moving endpoint is replaced by a stub holding
///    (host, rendezvous port, token) of the node that keeps the other
///    endpoint; the staying endpoint is switched onto a pending socket
///    through its Sequence stream; on arrival the stub resolves by
///    dialing back -- unconsumed pipe bytes travel inside the stub and
///    are prepended, so not a byte is lost or reordered;
///  * shipping an endpoint that is *already* the producer side of a
///    remote segment triggers the redirect protocol of Section 4.3: the
///    old consumer is told in-band to expect a successor connection, and
///    the stub sends the new producer straight to the consumer's node --
///    traffic never relays through the abandoned middleman.
namespace dpn::dist {

/// Serialization-time context (stored in the ObjectOutputStream
/// attachment).
struct SendContext {
  std::shared_ptr<NodeContext> node;
  /// Channels with both endpoints inside the shipment.
  std::set<const core::ChannelState*> internal;
  std::unordered_map<const core::ChannelState*, std::uint64_t> pipe_ids;
  std::set<std::uint64_t> meta_emitted;
  std::uint64_t next_pipe_id = 0;
};

/// Deserialization-time context (ObjectInputStream attachment).
struct ReceiveContext {
  std::shared_ptr<NodeContext> node;
  /// Internal channels already rebuilt, by shipment-local pipe id.
  std::unordered_map<std::uint64_t, std::shared_ptr<core::Channel>> channels;
};

/// Installs the channel-endpoint serialization hooks into dpn::core.
/// Idempotent; called automatically by NodeContext::create.
void ensure_hooks_installed();

/// Retires a channel's typed fast path at a ship cut (io/typed_ring.hpp):
/// the ring's backlog is encoded into the byte plane -- in order, ahead of
/// anything the producer writes after the demotion -- and both typed
/// endpoints fall back to byte streams.  Normally the backlog lands in the
/// pipe (unbounded first, so a full ring cannot wedge the cut) where the
/// cut's steal of the unconsumed history picks it up; when the
/// producer already closed, the pipe rejects writes, so the bytes are
/// returned for the caller to append after the drained history instead (no
/// racing writer exists then, so the order is still exact).  A demotion
/// that throws mid-encode poisons the ring -- the consumer sees WorkerLost,
/// never a silently truncated stream -- and fails the shipment.
ByteVector demote_typed(const std::shared_ptr<core::ChannelState>& state);

/// Serializes `process` for execution elsewhere.  `node` is the local
/// (sending) server, whose rendezvous will accept the dial-backs for
/// channels cut by this shipment.
ByteVector ship_process(const std::shared_ptr<NodeContext>& node,
                        const std::shared_ptr<core::Process>& process);

/// Reconstructs a shipped process on `node` (the receiving server),
/// dialing back for every cut channel.
std::shared_ptr<core::Process> receive_process(
    const std::shared_ptr<NodeContext>& node, ByteSpan bytes);

/// Generic object-graph variants used by the compute-server protocol
/// (tasks, results); channel endpoints are supported the same way.
ByteVector ship_object(const std::shared_ptr<NodeContext>& node,
                       const std::shared_ptr<serial::Serializable>& object);
std::shared_ptr<serial::Serializable> receive_object(
    const std::shared_ptr<NodeContext>& node, ByteSpan bytes);

}  // namespace dpn::dist
