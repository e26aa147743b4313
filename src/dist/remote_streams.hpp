#pragma once

#include <atomic>
#include <memory>
#include <mutex>

#include "dist/node.hpp"
#include "io/sequence.hpp"
#include "io/stream.hpp"
#include "net/mux.hpp"
#include "obs/flight.hpp"
#include "sched/waiters.hpp"

/// The transport-backed stream segments that sit underneath a distributed
/// channel (the paper's RemoteInputStream / RemoteOutputStream /
/// RedirectedInputStream, Sections 4.2-4.3).
///
/// A remote channel segment is one mux stream (net/mux.hpp) whose
/// producer->consumer direction carries the channel's bytes as they are:
///   * the stream's window is the channel's bound: a producer whose
///     consumer does not read blocks once it is a window ahead (Section
///     3.5 across machines), and the consumer's reads return window;
///   * the producer's end of stream (mux FIN) is the channel's end: the
///     consumer reads end-of-stream after the data;
///   * an end of stream that carries a RedirectInfo says "the stream
///     continues on a new connection; expect a rendezvous with this
///     token" (the producing endpoint was shipped onward to a third
///     server, so traffic stops relaying through the middle man --
///     Figure 15);
///   * the consumer's close resets the stream's data direction (mux
///     RST): the producer's next write, or the one parked on the window,
///     throws ChannelClosed -- the cascade of Section 3.4 crosses
///     machine boundaries.
namespace dpn::dist {

/// The end message of a redirected segment: the stream continues under
/// `token`, which the consumer registers at its own node's rendezvous and
/// the producer's reincarnation dials there.
struct RedirectInfo {
  std::uint64_t token = 0;
  /// Causal context of the redirect handshake; on the wire only when
  /// valid.
  obs::TraceContext trace;

  ByteVector encode() const;
  /// Throws IoError unless `message` is a token, optionally followed by a
  /// trace context.
  static RedirectInfo decode(ByteSpan message);
};

/// Consumer side of a remote channel segment.  Lives inside a
/// ChannelInputStream's SequenceInputStream; when its end of stream
/// carries a redirect it appends the successor segment to that same
/// sequence and ends.
///
/// Traffic accounting (TrafficStats): the segment counts the bytes it
/// hands out in its own tally, which the node sums on demand; it counts
/// as a blocked remote reader only while one of its waits is parked (its
/// WaitObserver role).
class FrameChannelInput final : public io::InputStream,
                                private net::WaitObserver {
 public:
  /// An established stream (this endpoint dialed the producer's node,
  /// whose rendezvous is `producer`).
  FrameChannelInput(std::shared_ptr<net::Stream> stream,
                    std::shared_ptr<NodeContext> node,
                    PeerAddress producer = {});

  /// A stream that will arrive at this node's rendezvous (this endpoint
  /// stayed put / was redirected to).  The first read blocks until the
  /// producer dials in.
  FrameChannelInput(std::shared_ptr<StreamPromise> promise,
                    std::uint64_t token, std::shared_ptr<NodeContext> node);

  ~FrameChannelInput() override;

  /// The sequence to splice successor segments into on a redirect.
  void set_parent_sequence(std::weak_ptr<io::SequenceInputStream> parent) {
    parent_ = std::move(parent);
  }

  /// Names the consuming channel (core::ChannelState::id) in the flight
  /// events of this segment's receive parks.  Set before the first read.
  void set_flight_id(std::uint64_t id) { flight_id_ = id; }

  std::size_t read_some(MutableByteSpan out) override;
  void close() override;

  /// Grants the producer `bytes` more window for good: the distributed
  /// deadlock detector's remote analogue of growing a full local channel.
  /// Thread-safe; a no-op until the segment has a live stream.
  void grant_bonus_credits(std::size_t bytes);

 private:
  void ensure_connected();
  void attach(std::shared_ptr<net::Stream> stream);
  /// The stream ended: acts on its end message, and counts the end.
  void end_of_segment();
  [[noreturn]] void producer_lost(const IoError& e);
  void handle_redirect(const RedirectInfo& info);

  // WaitObserver: parks of this segment's stream.
  void on_park() override;
  void on_unpark() override;
  std::uint64_t flight_id() const override { return flight_id_; }

  std::shared_ptr<NodeContext> node_;
  TrafficStats* const stats_;
  std::uint64_t flight_id_ = 0;
  TrafficStats::Tally received_{stats_,
                                TrafficStats::Tally::Direction::kReceived};
  std::weak_ptr<io::SequenceInputStream> parent_;

  // stream_ is set once, by the reader; close() and bonus grants from
  // other threads read it under stream_mutex_.
  std::mutex stream_mutex_;
  std::shared_ptr<net::Stream> stream_;
  std::shared_ptr<StreamPromise> promise_;
  std::uint64_t pending_token_ = 0;
  // Named in a lost producer's flight event.
  PeerAddress producer_addr_;

  std::atomic<bool> eof_{false};
  std::atomic<bool> closed_{false};
};

/// Producer side of a remote channel segment.  Its traffic accounting
/// mirrors FrameChannelInput's: each write's bytes go into its own tally
/// once written; it counts as a blocked remote writer while a wait parks
/// -- a stall on the stream's window, or the wait for its consumer to
/// dial in.
///
/// One writer, as a segment of a ChannelOutputStream's
/// SequenceOutputStream; close() and redirect_and_finish() -- the cuts --
/// may come from another thread while a write is in flight.  A cut ends
/// the mux stream with finish_with, which fails the write in flight
/// with io::WriteStopped; a segment whose consumer has not dialed in yet
/// is ended by the cut once it has, by the cut itself or, if the writer
/// is already waiting for the dial-in, after the writer attached the
/// stream.  The writer reaches a connected stream with no lock.
class FrameChannelOutput final : public io::OutputStream,
                                 private net::WaitObserver {
 public:
  /// An established stream; `peer` is the consumer node's rendezvous
  /// address (kept so this endpoint can orchestrate a redirect if it is
  /// shipped again).  `node` attributes traffic to the hosting node's
  /// counters (may be null in tests).
  FrameChannelOutput(std::shared_ptr<net::Stream> stream, PeerAddress peer,
                     std::shared_ptr<NodeContext> node = nullptr);

  /// A stream that will arrive at this node's rendezvous (this endpoint
  /// stayed put while its consumer shipped out).  The first write blocks
  /// until the consumer dials in; the consumer's rendezvous address is
  /// learned from its HELLO.
  FrameChannelOutput(std::shared_ptr<StreamPromise> promise,
                     std::shared_ptr<NodeContext> node);

  ~FrameChannelOutput() override;

  void write(ByteSpan data) override { write_vectored(data, {}); }
  void write_vectored(ByteSpan a, ByteSpan b) override;
  void close() override;

  /// The consumer node's rendezvous address (valid once connected).
  PeerAddress peer() const;

  /// Ends this segment with a RedirectInfo for `successor_token`: the
  /// consumer expects the stream to continue there (paper Figure 15).
  /// First waits for the consumer to dial in if it has not yet.  The
  /// endpoint is unusable after.
  void redirect_and_finish(std::uint64_t successor_token);

 private:
  /// The writer's slow path: waits for the consumer to dial in.  Throws
  /// io::WriteStopped once a cut ended the segment.
  net::Stream& connect();
  /// Waits on `promise` and attaches the stream it brings.
  void dial_in(const std::shared_ptr<StreamPromise>& promise);
  /// Under mutex_ (or in a constructor).
  void attach(std::shared_ptr<net::Stream> stream);
  /// The cut: sends the end of stream, carrying `end_message`, once the
  /// consumer has dialed in; this side never reads, so its receive
  /// direction closes too.  False if the segment was already ended.
  bool end(ByteSpan end_message);

  // WaitObserver: parks of this segment's stream.
  void on_park() override;
  void on_unpark() override;

  std::shared_ptr<NodeContext> node_;
  TrafficStats* const stats_;
  TrafficStats::Tally sent_{stats_, TrafficStats::Tally::Direction::kSent};
  // The writer's way to the stream, once connected.
  std::atomic<net::Stream*> live_{nullptr};

  mutable std::mutex mutex_;
  sched::Waiters attached_;  // a cut waiting for the writer's dial-in
  std::shared_ptr<net::Stream> stream_;  // set once, then live_
  std::shared_ptr<StreamPromise> promise_;
  PeerAddress peer_;
  bool connecting_ = false;  // the writer waits on promise_
  bool ended_ = false;
};

/// Output whose reader is already gone: every write throws ChannelClosed.
/// Used when an endpoint is shipped after its consumer terminated.
class DeadOutputStream final : public io::OutputStream {
 public:
  void write(ByteSpan) override { throw ChannelClosed{}; }
  void close() override {}
};

}  // namespace dpn::dist
