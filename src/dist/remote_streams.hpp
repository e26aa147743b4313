#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>

#include "dist/node.hpp"
#include "io/sequence.hpp"
#include "io/stream.hpp"
#include "net/frames.hpp"
#include "net/transport.hpp"

/// The transport-backed stream segments that sit underneath a distributed
/// channel (the paper's RemoteInputStream / RemoteOutputStream /
/// RedirectedInputStream, Sections 4.2-4.3).
///
/// A remote channel segment is one net::Stream carrying frames in the
/// producer->consumer direction:
///   DATA     -- payload bytes;
///   FIN      -- producer closed: consumer sees end-of-stream after drain;
///   REDIRECT -- "the stream continues on a new connection; expect a
///               rendezvous with this token" (sent when the producing
///               endpoint is shipped onward to a third server, so traffic
///               stops relaying through the middle man -- Figure 15).
/// Consumer-side close shuts the stream down, which surfaces as
/// ChannelClosed on the producer's next write: the cascade of Section 3.4
/// crosses machine boundaries.  On the blocking backend a segment owns a
/// TCP connection; on the mux backend it is one logical stream over the
/// shared per-host connection -- the frame protocol is identical either
/// way.
namespace dpn::dist {

/// Consumer side of a remote channel segment.  Lives inside a
/// ChannelInputStream's SequenceInputStream; when a REDIRECT arrives it
/// appends the successor segment to that same sequence and lets the
/// current segment run out.
///
/// Frames are parsed in place (net::FrameParser), out of the bytes the
/// transport stream has already received (net::Stream::read_in_place):
/// payload bytes go straight into the caller's buffer.
///
/// Traffic accounting (TrafficStats): the segment counts the bytes it
/// hands out in its own tally, which the node sums on demand; it counts
/// as a blocked remote reader only while one of its waits is parked (its
/// WaitObserver role).
class FrameChannelInput final : public io::InputStream,
                                private net::WaitObserver {
 public:
  /// An established connection (this endpoint dialed the producer's node).
  /// `credit_batch` overrides the consumption-credit coalescing threshold
  /// (0 = default; see ChannelOptions::remote.coalesce_bytes), and
  /// `credit_window` is the channel's window (0 = the node default); the
  /// batch never exceeds half the window.
  /// `producer` and `close_token` name the producer node's rendezvous and
  /// the token this segment was dialed with, enabling the out-of-band
  /// CLOSE notification on teardown (zero/empty disables it).
  FrameChannelInput(std::shared_ptr<net::Stream> stream,
                    std::shared_ptr<NodeContext> node,
                    std::size_t credit_batch = 0,
                    std::size_t credit_window = 0,
                    PeerAddress producer = {},
                    std::uint64_t close_token = 0);

  /// A connection that will arrive at this node's rendezvous (this
  /// endpoint stayed put / was redirected to).  The first read blocks
  /// until the producer dials in.
  FrameChannelInput(std::shared_ptr<StreamPromise> promise,
                    std::uint64_t token, std::shared_ptr<NodeContext> node,
                    std::size_t credit_batch = 0,
                    std::size_t credit_window = 0);

  ~FrameChannelInput() override;

  /// The sequence to splice successor segments into on REDIRECT.
  void set_parent_sequence(std::weak_ptr<io::SequenceInputStream> parent) {
    parent_ = std::move(parent);
  }

  /// Names the consuming channel (core::ChannelState::id) in the flight
  /// events of this segment's receive parks.  Set before the first read.
  void set_flight_id(std::uint64_t id) { flight_id_ = id; }

  std::size_t read_some(MutableByteSpan out) override;
  void close() override;

  /// Grants the producer extra window beyond normal consumption credits.
  /// The distributed deadlock detector uses this as the remote analogue
  /// of growing a full local channel.  Thread-safe; a no-op until the
  /// segment has a live stream.
  void grant_bonus_credits(std::uint32_t bytes);

 private:
  void ensure_connected();
  void attach(std::shared_ptr<net::Stream> stream);
  /// Acts on the parser's completed control frame (FIN, REDIRECT, ...).
  void handle_control_frame();
  [[noreturn]] void producer_lost(const IoError& e);
  void handle_redirect(const net::RedirectInfo& info);
  void send_credit(std::uint32_t bytes);
  void notify_producer_closed() noexcept;

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

  std::shared_ptr<net::Stream> stream_;
  std::shared_ptr<StreamPromise> promise_;
  std::uint64_t pending_token_ = 0;

  net::FrameParser parser_;

  // Where an early close() sends the out-of-band CLOSE notification: the
  // producer node's rendezvous + the token its credit waiter is
  // registered under.  Learned from the stub (dialing side) or from the
  // producer's HELLO (promise side).
  PeerAddress producer_addr_;
  std::uint64_t close_token_ = 0;

  // Reverse-direction flow control (see net::FrameType::kCredit).
  // Consumption credits below this size coalesce into one grant instead
  // of costing a frame (header + syscall) each (default 4 KiB).  Capped
  // at half the window: credit this consumer holds back while it blocks
  // elsewhere can then never use up the producer's whole window.
  const std::uint32_t credit_batch_;
  std::mutex credit_mutex_;
  std::optional<net::FrameWriter> credit_writer_;
  bool credit_channel_dead_ = false;
  std::uint32_t pending_credit_ = 0;

  // Atomic: written by the reader, consulted by a close() from another
  // thread to decide whether the producer still needs a CLOSE nudge.
  std::atomic<bool> eof_{false};
  std::atomic<bool> closed_{false};
};

/// The part of a producer segment that a consumer's out-of-band CLOSE
/// (delivered by the node's rendezvous acceptor) reaches.  It holds the
/// segment's stream and nothing that holds a node: releasing the last
/// reference on the acceptor must never run ~RendezvousService, which
/// joins the acceptor (a thread cannot join itself).
class PeerCloseSignal {
 public:
  /// The consumer will never read or grant again: shuts down the stream's
  /// receive side, so a writer parked in its credit read sees
  /// end-of-stream (ChannelClosed).  Takes no segment lock: the parked
  /// writer holds it.  The RST hazard that keeps Stream::abandon_read a
  /// no-op on the blocking backend does not apply: a SHUT_RD here can
  /// only destroy bytes addressed to a consumer that stopped reading.
  void fire();
  bool fired() const { return fired_.load(std::memory_order_acquire); }
  /// The stream to shut down; set once the segment connects.
  void set_stream(std::shared_ptr<net::Stream> stream);

 private:
  std::atomic<bool> fired_{false};
  std::mutex mutex_;
  std::shared_ptr<net::Stream> stream_;
};

/// Producer side of a remote channel segment.  Its traffic accounting
/// mirrors FrameChannelInput's: each frame's payload goes into its own
/// tally once written; it counts as a blocked remote writer while a wait
/// parks -- a stall on the mux window, the dist credit wait, or the wait
/// for its consumer to dial in.
///
/// Not internally synchronized: it lives under a ChannelOutputStream's
/// SequenceOutputStream, whose one writer calls write() and whose cuts
/// (close, switch_to, cut) call the rest with no write in flight.  Only
/// close_signal() is reached from another thread.
class FrameChannelOutput final : public io::OutputStream,
                                 private net::WaitObserver {
 public:
  /// An established connection; `peer` is the consumer node's rendezvous
  /// address (kept so this endpoint can orchestrate a redirect if it is
  /// shipped again).  `node` attributes traffic to the hosting node's
  /// counters (may be null in tests).  `window_override` replaces the
  /// node's default flow-control window when nonzero
  /// (ChannelOptions::remote.credit_window).
  FrameChannelOutput(std::shared_ptr<net::Stream> stream, PeerAddress peer,
                     std::shared_ptr<NodeContext> node = nullptr,
                     std::size_t window_override = 0);

  /// A connection that will arrive at this node's rendezvous (this
  /// endpoint stayed put while its consumer shipped out).  The first
  /// write blocks until the consumer dials in; the consumer's rendezvous
  /// address is learned from its HELLO.
  FrameChannelOutput(std::shared_ptr<StreamPromise> promise,
                     std::uint64_t token, std::shared_ptr<NodeContext> node,
                     std::size_t window_override = 0);

  ~FrameChannelOutput() override;

  void write(ByteSpan data) override;
  void flush() override {}
  void close() override;

  /// The consumer node's rendezvous address (valid once connected).
  const PeerAddress& peer() const { return peer_; }

  /// Tells the consumer the stream continues elsewhere (paper Figure 15),
  /// then ends this segment with a FIN; first waits for the consumer to
  /// dial in if it has not yet.  The endpoint is unusable after.
  void redirect_and_finish(std::uint64_t successor_token);

  /// What the node's rendezvous fires when this segment's consumer sends
  /// its out-of-band CLOSE: wakes a writer parked in await_credit.
  const std::shared_ptr<PeerCloseSignal>& close_signal() const {
    return close_signal_;
  }

 private:
  void ensure_connected();
  void attach(std::shared_ptr<net::Stream> stream);

  // WaitObserver: parks of this segment's stream.
  void on_park() override;
  void on_unpark() override;

  /// Reads frames off the credit direction.  With block=true, waits for at
  /// least one grant (the window is exhausted); either way it then drains
  /// every frame already queued.  See write() for why the non-blocking
  /// drain must also run while the window still has room.
  void drain_credits(bool block);
  void await_credit() { drain_credits(/*block=*/true); }
  void park_stream();

  std::shared_ptr<NodeContext> node_;
  TrafficStats* const stats_;
  TrafficStats::Tally sent_{stats_, TrafficStats::Tally::Direction::kSent};
  std::shared_ptr<net::Stream> stream_;
  // Its own lock and its own stream handle: the wake reaches a writer
  // parked in the credit read.
  const std::shared_ptr<PeerCloseSignal> close_signal_ =
      std::make_shared<PeerCloseSignal>();
  std::shared_ptr<StreamPromise> promise_;
  std::uint64_t pending_token_ = 0;
  std::optional<net::FrameWriter> writer_;
  // Flow-control window: payload bytes this producer may still send
  // before it must block for consumer credits (bounded remote channels).
  std::int64_t window_ = 0;
  // Payload bytes sent since the credit direction was last drained; at
  // kDrainEveryBytes the next write polls the queued grants off even
  // though the window is not exhausted (teardown-gridlock fix).
  std::int64_t since_drain_ = 0;
  static constexpr std::int64_t kDrainEveryBytes = 32 << 10;
  std::optional<net::FrameReader> credit_reader_;
  PeerAddress peer_;
  bool closed_ = false;
};

/// Output whose reader is already gone: every write throws ChannelClosed.
/// Used when an endpoint is shipped after its consumer terminated.
class DeadOutputStream final : public io::OutputStream {
 public:
  void write(ByteSpan) override { throw ChannelClosed{}; }
  void close() override {}
};

}  // namespace dpn::dist
