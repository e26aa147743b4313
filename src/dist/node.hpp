#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "net/mux.hpp"
#include "sched/waiters.hpp"

/// Per-server infrastructure for distributed channels.
///
/// When a channel endpoint is shipped to another server, the endpoint that
/// stays behind must accept exactly one incoming connection for that
/// channel (paper Section 4.2), and a redirected endpoint must accept a
/// connection from a third server it has never heard of (Section 4.3).
/// Rather than opening one listening endpoint per pending channel, each
/// logical server (NodeContext) runs a single *rendezvous* listener:
///
///   * the staying side registers a fresh random token and gets a
///     StreamPromise;
///   * the stub shipped with the moving endpoint carries
///     (host, rendezvous port, token);
///   * the moving side dials the rendezvous and opens with a HELLO
///     carrying the token (plus its own rendezvous address, which the
///     receiver remembers in case *it* needs to redirect later);
///   * the rendezvous acceptor matches the token and hands the stream to
///     the waiting endpoint.
///
/// Every connection is a mux stream (net::dial, net/mux.hpp), so every
/// channel between a host pair shares one TCP connection and the
/// rendezvous "dial" is just a new logical stream.
///
/// Multiple NodeContexts may coexist in one OS process, which is how the
/// tests and examples run "server A / B / C" topologies over real sockets
/// on one machine.
namespace dpn::dist {

/// Advertised rendezvous coordinates of some node.
struct PeerAddress {
  std::string host;
  std::uint16_t port = 0;

  bool valid() const { return port != 0; }
};

/// One-shot handoff of an accepted, handshaken stream.
class StreamPromise {
 public:
  /// `token` names the awaited connection in flight-recorder events.
  explicit StreamPromise(std::uint64_t token) : token_(token) {}

  /// Fulfills the promise (acceptor side).  Returns false if the promise
  /// was cancelled, in which case the caller keeps the stream.
  bool fulfill(std::shared_ptr<net::Stream> stream, PeerAddress dialer);

  /// Blocks until fulfilled or cancelled; throws NetError on cancel() and
  /// WorkerLost on fail().  A fiber parks on the scheduler instead of
  /// pinning its worker.  While the wait actually parks it counts in
  /// `blocked` (may be null) and is bracketed by kRendezvousWait /
  /// kRendezvousResume flight events that name the waiting process.
  std::shared_ptr<net::Stream> wait(
      std::atomic<std::int64_t>* blocked = nullptr);

  /// The dialer's rendezvous address; valid after wait() returns.
  const PeerAddress& dialer() const { return dialer_; }

  /// Wakes any waiter with an error and refuses future fulfillment; a
  /// stream that arrived but was never claimed is closed.
  void cancel();

  /// cancel(), but the waiter throws WorkerLost{reason}: the dialer this
  /// promise awaits may have been lost.
  void fail(std::string reason);

  bool fulfilled() const;

 private:
  const std::uint64_t token_;
  mutable std::mutex mutex_;
  sched::Waiters waiters_;
  std::shared_ptr<net::Stream> stream_;
  PeerAddress dialer_;
  bool fulfilled_ = false;
  bool cancelled_ = false;
  std::string failure_;  // set by fail()
};

/// The node-wide channel listener.
class RendezvousService {
 public:
  RendezvousService();
  ~RendezvousService();

  RendezvousService(const RendezvousService&) = delete;
  RendezvousService& operator=(const RendezvousService&) = delete;

  std::uint16_t port() const { return listener_->port(); }

  /// Registers a token and returns the promise its connection will arrive
  /// on.  Tokens are single-use.  If the connection already arrived (a
  /// dialer can race ahead of a lazily-read REDIRECT frame) the promise is
  /// fulfilled immediately from the parked connection.
  std::shared_ptr<StreamPromise> expect(std::uint64_t token);

  /// Drops a registration (e.g. a discarded never-connected endpoint).
  void forget(std::uint64_t token);

  /// Dials a remote rendezvous and performs the HELLO handshake.
  /// `self` is this node's own rendezvous address, told to the peer.
  /// `stream_window` is the stream's window (0 = net::kStreamWindow): a
  /// remote channel's bound.
  static std::shared_ptr<net::Stream> dial(const std::string& host,
                                           std::uint16_t port,
                                           std::uint64_t token,
                                           const PeerAddress& self,
                                           std::size_t stream_window = 0);

 private:
  void accept_loop();
  /// Fails every pending promise (see StreamPromise::fail).
  void fail_pending(const std::string& reason);

  struct Parked {
    std::shared_ptr<net::Stream> stream;
    PeerAddress dialer;
  };

  std::shared_ptr<net::Listener> listener_;
  std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<StreamPromise>> pending_;
  std::unordered_map<std::uint64_t, Parked> parked_;
  std::jthread acceptor_;
  std::atomic<bool> shutting_down_{false};
};

/// Aggregate traffic/blocking counters for all remote channel segments of
/// one node.  The distributed deadlock detector (paper Section 6.2) uses
/// them for a Mattern-style global quiescence test: when every process on
/// every node is blocked AND the fleet-wide bytes sent equal bytes
/// received (no frame in flight), the stall is real.
///
/// Byte counts are kept per endpoint (Tally), so the per-token path
/// touches no node-wide counter; a read of bytes_sent / bytes_received
/// sums the live tallies with what closed endpoints left behind, and is
/// therefore exact at any moment, not only at some publication point.
class TrafficStats {
 public:
  /// One endpoint's byte count in one direction.  Only its endpoint adds
  /// to it (single writer: a plain load and store, no read-modify-write);
  /// the node reads it live.  Registered while it exists; on destruction
  /// its count moves to the node's retired total.
  class Tally {
   public:
    enum class Direction : std::uint8_t { kSent, kReceived };

    /// `stats` may be null (an endpoint without a node counts nothing).
    Tally(TrafficStats* stats, Direction direction);
    ~Tally();

    Tally(const Tally&) = delete;
    Tally& operator=(const Tally&) = delete;

    void add(std::uint64_t bytes) {
      bytes_.store(bytes_.load(std::memory_order_relaxed) + bytes,
                   std::memory_order_relaxed);
    }

   private:
    friend class TrafficStats;
    TrafficStats* const stats_;
    const Direction direction_;
    std::atomic<std::uint64_t> bytes_{0};
    Tally* prev_ = nullptr;  // registry links, under stats_->mutex_
    Tally* next_ = nullptr;
  };

  /// A node-wide byte total, summed on demand.
  class Total {
   public:
    std::uint64_t load() const;

   private:
    friend class TrafficStats;
    Total(const TrafficStats& stats, Tally::Direction direction)
        : stats_(stats), direction_(direction) {}
    const TrafficStats& stats_;
    const Tally::Direction direction_;
  };

  struct Bytes {
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
  };

  TrafficStats() = default;
  TrafficStats(const TrafficStats&) = delete;
  TrafficStats& operator=(const TrafficStats&) = delete;

  /// Both totals from one pass over the tallies.
  Bytes bytes() const;

  const Total bytes_sent{*this, Tally::Direction::kSent};
  const Total bytes_received{*this, Tally::Direction::kReceived};
  /// Processes currently blocked inside a remote read / write.
  std::atomic<std::int64_t> blocked_remote_readers{0};
  std::atomic<std::int64_t> blocked_remote_writers{0};
  /// Stream ends (FIN frames) producers sent and consumers took.  An end
  /// wakes a blocked reader as a byte does, so the quiescence test counts
  /// it as one; unlike bytes it comes once per segment, so a plain atomic.
  std::atomic<std::uint64_t> ends_sent{0};
  std::atomic<std::uint64_t> ends_received{0};

 private:
  mutable std::mutex mutex_;
  Tally* live_ = nullptr;
  Bytes retired_;
};

/// A logical server: advertised address + rendezvous listener + token
/// source.  Creating the first NodeContext installs the distribution
/// hooks into dpn::core.
class NodeContext : public std::enable_shared_from_this<NodeContext> {
 public:
  static std::shared_ptr<NodeContext> create(
      std::string advertised_host = "127.0.0.1");

  /// Process-wide fallback node, created on first use.  Used when objects
  /// are deserialized outside any compute server.
  static std::shared_ptr<NodeContext> default_node();

  const std::string& host() const { return host_; }
  RendezvousService& rendezvous() { return rendezvous_; }

  PeerAddress address() const {
    return PeerAddress{host_, rendezvous_.port()};
  }

  /// Fresh random token for a pending channel connection.
  std::uint64_t next_token();

  /// Remote-channel counters for this node's endpoints.
  const std::shared_ptr<TrafficStats>& traffic() const { return traffic_; }

  /// Registers a live remote-channel stream so abort_remote_channels()
  /// can reach it.  Dead entries are pruned opportunistically.
  void register_remote_stream(const std::shared_ptr<net::Stream>& stream);

  /// Shuts down every registered remote-channel stream, waking processes
  /// blocked in remote reads/writes (they stop via the normal
  /// end-of-stream / ChannelClosed paths).  Used by the distributed
  /// deadlock detector's fleet abort.
  void abort_remote_channels();

  /// True once abort_remote_channels() has run: readers woken by the
  /// shutdown report a quiet stop instead of WorkerLost (an abort is
  /// deliberate, not a lost producer).
  bool aborting() const { return aborting_.load(std::memory_order_acquire); }

  /// The window (bytes) of the remote channels whose producers write
  /// *from* this node, unless the channel sets its own
  /// (ChannelOptions::remote.credit_window); and the bonus this node's
  /// consumers grant when the distributed deadlock detector orders a
  /// window grow.  Remote channels are bounded (Section 3.5 across
  /// machines); the default is generous enough that healthy graphs never
  /// notice.
  std::size_t remote_window() const { return remote_window_.load(); }
  void set_remote_window(std::size_t bytes) { remote_window_.store(bytes); }

  /// Registers a consumer-side remote segment for window bonuses.
  void register_remote_input(const std::shared_ptr<class FrameChannelInput>&
                                 input);

  /// Grants one bonus window on every live consumer-side segment of this
  /// node -- the distributed equivalent of growing a full channel's
  /// buffer (Parks' rule applied to a remote channel).
  void grant_remote_credits();

 private:
  explicit NodeContext(std::string advertised_host);

  std::string host_;
  RendezvousService rendezvous_;
  std::mutex token_mutex_;
  std::uint64_t token_state_;
  std::shared_ptr<TrafficStats> traffic_ = std::make_shared<TrafficStats>();
  std::atomic<std::size_t> remote_window_{1u << 18};
  std::atomic<bool> aborting_{false};
  std::mutex streams_mutex_;
  std::vector<std::weak_ptr<net::Stream>> remote_streams_;
  std::vector<std::weak_ptr<class FrameChannelInput>> remote_inputs_;
};

}  // namespace dpn::dist
