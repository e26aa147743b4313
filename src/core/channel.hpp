#pragma once

#include <memory>
#include <string>

#include "io/blocking.hpp"
#include "io/pipe.hpp"
#include "io/sequence.hpp"
#include "io/typed_ring.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "serial/serial.hpp"

/// Channels: the operational embodiment of Kahn's streams (paper
/// Section 3.1, Figure 3).
///
/// A Channel connects exactly one producing process to one consuming
/// process.  Each endpoint is a stream object a process holds on to:
///
///   ChannelOutputStream -> SequenceOutputStream -> Local/Frame output
///   ChannelInputStream  -> SequenceInputStream  -> Local/Memory/Frame input
///
/// The Sequence layer is what allows the transport underneath a live
/// channel to be swapped -- pipe to socket when an endpoint is shipped to
/// another server, upstream channel spliced in when a process removes
/// itself -- while preserving FIFO order and losing no bytes.  It takes a
/// lock only at such a cut: with one reader and one writer per channel, a
/// steady-state token crosses both Sequence layers without one (DESIGN.md
/// section 6, item 7).
///
/// Serializing an endpoint (that is, shipping the process that owns it)
/// triggers automatic connection establishment; the hooks live in
/// dpn::dist and are installed through set_distribution_hooks below, so a
/// purely local program never pays for the networking machinery.
namespace dpn::core {

class ChannelInputStream;
class ChannelOutputStream;

/// Construction knobs for a Channel.  Endpoints are write-through: every
/// write is visible to the consumer when it returns, and every
/// ChannelClosed and window interaction is observable per call (the pipe
/// takes no lock on a steady write, so there is nothing to batch away).
struct ChannelOptions {
  std::size_t capacity = io::Pipe::kDefaultCapacity;
  std::string label;

  /// Tuning applied if/when an endpoint of this channel is shipped to
  /// another server (ignored while the channel stays local):
  ///
  ///   make_channel({.label = "bulk", .remote = {.credit_window = 1 << 20}});
  ///
  /// credit_window is the remote channel's "capacity": the window in
  /// bytes of the stream that carries it, so the producer blocks once it
  /// is that far ahead of its consumer.  0 means the window of the
  /// producer's node (dist::NodeContext::remote_window).
  struct RemoteTuning {
    std::size_t credit_window = 0;
  } remote;
};

/// Process-wide unique id for a ChannelState; stable for the life of the
/// state object.  Snapshots carry it so a growth decision computed from a
/// snapshot can be re-validated against the live network (the id survives
/// neither shipping nor decode -- a reconstructed remote endpoint gets a
/// fresh state and a fresh id, which is correct: it is a different local
/// object with its own pipe).
std::uint64_t next_channel_id();

/// State shared by the two endpoints of a channel while they can still see
/// each other (i.e. until one of them is shipped away).
struct ChannelState {
  /// The local pipe between the endpoints; null for an endpoint
  /// reconstructed on a remote server (its peer is behind a socket).
  std::shared_ptr<io::Pipe> pipe;
  std::weak_ptr<ChannelInputStream> input;
  std::weak_ptr<ChannelOutputStream> output;
  std::size_t capacity = io::Pipe::kDefaultCapacity;
  std::string label;
  /// Set by the distribution layer when an endpoint has been shipped to
  /// another server; the remaining local endpoint then knows its peer is
  /// no longer reachable in this address space (used e.g. by Cons to
  /// decide whether self-removal splicing is possible).
  bool input_remote = false;
  bool output_remote = false;
  /// Remote-segment tuning (see ChannelOptions::RemoteTuning).  Travels
  /// with shipped endpoints.
  ChannelOptions::RemoteTuning remote;
  /// Typed zero-copy fast path: while both endpoints are in-process,
  /// values move through this ring and the pipe stays empty.  Null for
  /// plain byte channels and for endpoints reconstructed on a remote
  /// server (the wire is bytes, so a shipped typed channel continues on
  /// the byte path).  Installed by make_typed_channel; demoted at the
  /// ship cut points (see io/typed_ring.hpp).
  std::shared_ptr<io::TypedRingBase> typed;
  /// Stable identity for snapshots (see next_channel_id above).
  std::uint64_t id = next_channel_id();
  /// Lock-free traffic counters, updated by the endpoints.  Shared_ptr so
  /// the serialization hooks can carry the counters across a shipment and
  /// hand them to the reconstructed state: metrics survive migration.
  std::shared_ptr<obs::ChannelMetrics> metrics =
      std::make_shared<obs::ChannelMetrics>();
};

/// Consuming endpoint of a channel.
class ChannelInputStream final
    : public io::InputStream,
      public serial::Serializable,
      public std::enable_shared_from_this<ChannelInputStream> {
 public:
  /// Used by Channel and by the distribution machinery; user code obtains
  /// endpoints from Channel::input().
  ChannelInputStream(std::shared_ptr<ChannelState> state,
                     std::shared_ptr<io::SequenceInputStream> sequence);

  // --- io::InputStream (blocking reads; short reads allowed for byte
  // copies, full reads available via read_fully / DataInputStream) ---
  std::size_t read_some(MutableByteSpan out) override;
  int read() override;
  void close() override;

  /// Reads exactly out.size() bytes or throws EndOfStream (the blocking
  /// read discipline used by all element-structured processes).
  void read_fully(MutableByteSpan out);

  /// The splice point used by reconfiguration (Section 3.3) and by the
  /// remote machinery: streams appended here are drained after everything
  /// currently queued.
  io::SequenceInputStream& sequence() { return *sequence_; }
  const std::shared_ptr<io::SequenceInputStream>& sequence_ptr() const {
    return sequence_;
  }

  const std::shared_ptr<ChannelState>& state() const { return state_; }

  /// Installs the owning process's stats so blocking reads flip its
  /// observable state to blocked-reading.  Called by
  /// IterativeProcess::track_input; an unowned endpoint just skips the
  /// state flips.
  void set_owner(std::shared_ptr<obs::ProcessStats> owner) {
    owner_ = std::move(owner);
  }

  /// Installed by make_typed_channel.  While `ring` is live, the values
  /// travel through it and the pipe stays empty, so a byte read here
  /// (a DataInputStream instead of a TypedReader) throws UsageError
  /// rather than wait forever.
  void bind_typed(io::TypedRingBase* ring) { typed_ = ring; }

  // --- serial::Serializable (serialization ships the endpoint) ---
  std::string type_name() const override { return "dpn.ChannelInputStream"; }
  void write_fields(serial::ObjectOutputStream&) const override;
  std::shared_ptr<serial::Serializable> write_replace(
      serial::ObjectOutputStream& out) override;

 private:
  std::shared_ptr<ChannelState> state_;
  std::shared_ptr<io::SequenceInputStream> sequence_;
  /// state_->metrics.get(), cached: the metrics object lives and dies
  /// with state_, and the extra pointer chase is measurable per-token.
  obs::ChannelMetrics* metrics_ = nullptr;
  /// state_->typed.get() until the ring demotes (see bind_typed).
  io::TypedRingBase* typed_ = nullptr;
  std::shared_ptr<obs::ProcessStats> owner_;
};

/// Producing endpoint of a channel.
class ChannelOutputStream final
    : public io::OutputStream,
      public serial::Serializable,
      public std::enable_shared_from_this<ChannelOutputStream> {
 public:
  ChannelOutputStream(std::shared_ptr<ChannelState> state,
                      std::shared_ptr<io::SequenceOutputStream> sequence);

  // --- io::OutputStream (writes block while the channel is full --
  // Section 3.5's fairness mechanism -- and throw ChannelClosed once the
  // reader has closed -- Section 3.4's termination mechanism) ---
  void write(ByteSpan data) override;
  void write_byte(std::uint8_t b) override;
  void write_vectored(ByteSpan a, ByteSpan b) override;
  void close() override;

  io::SequenceOutputStream& sequence() { return *sequence_; }
  const std::shared_ptr<io::SequenceOutputStream>& sequence_ptr() const {
    return sequence_;
  }

  const std::shared_ptr<ChannelState>& state() const { return state_; }

  /// See ChannelInputStream::set_owner; flips blocked-writing instead.
  void set_owner(std::shared_ptr<obs::ProcessStats> owner) {
    owner_ = std::move(owner);
  }

  /// See ChannelInputStream::bind_typed: byte writes throw UsageError
  /// while the ring is live (the typed reader would never see them).
  void bind_typed(io::TypedRingBase* ring) { typed_ = ring; }

  // --- serial::Serializable ---
  std::string type_name() const override { return "dpn.ChannelOutputStream"; }
  void write_fields(serial::ObjectOutputStream&) const override;
  std::shared_ptr<serial::Serializable> write_replace(
      serial::ObjectOutputStream& out) override;

 private:
  std::shared_ptr<ChannelState> state_;
  std::shared_ptr<io::SequenceOutputStream> sequence_;
  /// state_->metrics.get(), cached (see ChannelInputStream::metrics_).
  obs::ChannelMetrics* metrics_ = nullptr;
  io::TypedRingBase* typed_ = nullptr;
  std::shared_ptr<obs::ProcessStats> owner_;
};

/// A first-in first-out connection between two processes.
class Channel {
 public:
  explicit Channel(std::size_t capacity = io::Pipe::kDefaultCapacity,
                   std::string label = {});
  explicit Channel(ChannelOptions options);

  /// The producing endpoint (paper: getOutputStream).  Exactly one process
  /// should hold it.
  const std::shared_ptr<ChannelOutputStream>& output() const { return out_; }

  /// The consuming endpoint (paper: getInputStream).
  const std::shared_ptr<ChannelInputStream>& input() const { return in_; }

  const std::shared_ptr<ChannelState>& state() const { return state_; }
  const std::shared_ptr<io::Pipe>& pipe() const { return state_->pipe; }

 private:
  std::shared_ptr<ChannelState> state_;
  std::shared_ptr<ChannelInputStream> in_;
  std::shared_ptr<ChannelOutputStream> out_;
};

/// Hooks installed by dpn::dist.  Serializing a channel endpoint without
/// hooks installed is a usage error: a purely local program has no business
/// shipping endpoints, and the core library does not depend on sockets.
struct DistributionHooks {
  std::function<std::shared_ptr<serial::Serializable>(
      const std::shared_ptr<ChannelInputStream>&, serial::ObjectOutputStream&)>
      replace_input;
  std::function<std::shared_ptr<serial::Serializable>(
      const std::shared_ptr<ChannelOutputStream>&,
      serial::ObjectOutputStream&)>
      replace_output;
};

void set_distribution_hooks(DistributionHooks hooks);
const DistributionHooks& distribution_hooks();

/// Builds the observability row for one channel: traffic counters from the
/// shared metrics, occupancy/pressure from the pipe (when local) and the
/// typed ring (when there is one).  Used by
/// Network::snapshot() and by a ComputeServer answering STATS for its
/// hosted processes.
obs::ChannelSnapshot snapshot_channel(const ChannelState& state);

}  // namespace dpn::core
