#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>

#include "sched/waiters.hpp"
#include "support/histogram.hpp"

/// The one ring protocol under io::Pipe (bytes in an io::ByteRing) and
/// io::TypedRing (values in a slot array): a bounded channel with one
/// producer and one consumer (the Kahn discipline) whose steady token
/// takes no lock, and whose rare transitions are cuts under one mutex.
/// The adapters differ only in their storage and in what a token is;
/// what follows holds for both.
///
/// Words.  Storage's `tail` and `head` count monotonic positions (bytes
/// or values); the producer publishes tail, the consumer head, and bit
/// 63 of each is kStop.  `freed` trails head by the claim in flight.
/// `flags` say why the ring stopped: every flag stops the producer for
/// good; every flag but kWriteClosed and kWriteStopped stops the
/// consumer too, which drains past those two.  A cut runs under `mutex`
/// and raises kStop in the position word of each side it stops, kept up
/// while a flag concerns that side; a cut that only raises the bound
/// (grow, Pipe::set_unbounded) stops no side.  A steady token issues one
/// locked instruction: the CAS that publishes or claims it.
///  * Publish: the producer puts a token past tail t, then CASes tail
///    t -> t+n (publish()), which fails only if a cut raised kStop first.
///    It then takes the token back: no cut saw it, since a cut acts on
///    [head, tail) as read by its fetch_or on tail, and a fetch_or after
///    a publish reads from it.  A stop is for good, so a Pipe writer
///    never puts at that position again.
///  * Claim: the consumer CASes head h -> h+n (claim()), moves [h, h+n)
///    out, then release-stores freed = h+n (claimed()).  A cut stopping
///    the consumer (stop_consumer) spins until freed reaches head: no
///    claim succeeds after its fetch_or, and a claim in flight has only
///    memcpys or nothrow moves, destructors and a store left (no lock,
///    no yield point), so the spin lasts one move at most.
///  * Room: the producer never overwrites a token a claim is moving.  A
///    TypedRing reuses slots, so it measures room against freed (and
///    parks against head, which freed trails by one move at most); a
///    ByteRing never reuses a position and hands a block back only once
///    the consumer has read past it, so a Pipe measures against head.
///  * Storage changes only while neither side can touch it.  A
///    TypedRing grows its slots in the producer's own cut, which stops
///    the consumer.  Storage is freed by the producer's slow path on
///    first seeing a flag that ended the consumer (any flag but
///    kWriteClosed, kWriteStopped and kAborted: abort does not wait out
///    the claim in flight), else by the destructor.  A TypedRing also
///    frees it in close_read or demote_into once kWriteClosed is set: its
///    endpoints are closed by their owners, so no put is in flight then.
///    A Pipe cannot: close_write and stop_write may come from another
///    thread (a Sequence cut) while the writer is still copying a put
///    that its CAS will then fail to publish.
///  * Stale views: each side keeps a copy of the other's position.
///    Positions only grow, so a copy only understates the room or the
///    tokens ready, never overstates them; a side reloads its copy when
///    it falls short (a Pipe writer also before it raises `peak`).
///  * Sleepers (sched::Sleepers' Dekker handshake): a parker counts
///    itself, then re-reads the other position; a publisher's CAS
///    precedes its read of the count, so one sees the other and no wake
///    is lost.  Every other change to a parker's condition is a cut,
///    which wakes both sides.
///  * End of stream: close_write raises kStop on tail, then sets
///    kWriteClosed, under mutex; a consumer that found the ring empty
///    reads both under mutex (consumer_edge), so it sees the final tail:
///    the last token before a close is never dropped.
///  * Waiter counts, and a Pipe's wait histograms, change only under
///    mutex (in a park), so the deadlock monitor reads exact values.
namespace dpn::io {

/// What a ring reports of itself, in tokens (bytes or values).
struct RingStats {
  std::size_t size = 0;  // buffered
  std::size_t capacity = 0;
  // Parked waiters not yet woken: a woken waiter that has not run yet is
  // not blocked, it is about to make progress.
  std::size_t blocked_readers = 0;
  std::size_t blocked_writers = 0;
  bool write_closed = false;
  bool read_closed = false;
};

/// Storage provides `tail` and `head` (std::atomic<std::uint64_t>), each
/// on its side's cache line, and release(), which frees every token's
/// room once neither side can touch it.  Adapters hold the core as a
/// member: their steady paths read its words and call publish, claim and
/// claimed; their own cuts run through cut() and the stop and resume
/// helpers below.
template <typename Storage>
class RingCore {
 public:
  static constexpr std::uint64_t kStop = std::uint64_t{1} << 63;

  static constexpr std::uint8_t kWriteClosed = 1;  // end of stream
  static constexpr std::uint8_t kWriteStopped = 2;  // no end (Pipe)
  static constexpr std::uint8_t kReadClosed = 4;
  static constexpr std::uint8_t kAborted = 8;
  /// The first of an adapter's own flags; they stop both sides.
  static constexpr std::uint8_t kOwnFlag = 16;

  static std::uint64_t index(std::uint64_t word) { return word & ~kStop; }

  explicit RingCore(std::size_t n) : bound(n), capacity(n) {}

  // --- steady path --------------------------------------------------------

  /// Producer: publishes the n tokens it put past tail `t`; false when a
  /// cut stopped it first (the tokens are then its own again).
  bool publish(std::uint64_t t, std::uint64_t n) {
    std::uint64_t expected = t;
    if (!ring.tail.compare_exchange_strong(expected, t + n,
                                           std::memory_order_seq_cst,
                                           std::memory_order_relaxed)) {
      return false;
    }
    readers.wake(mutex);
    return true;
  }

  /// Consumer: claims the n tokens from head `h`; false when a cut
  /// stopped it first.  Follow a claim with claimed() once they are out.
  bool claim(std::uint64_t h, std::uint64_t n) {
    return ring.head.compare_exchange_strong(h, h + n,
                                             std::memory_order_seq_cst,
                                             std::memory_order_relaxed);
  }

  /// Consumer: the claim ending at `end` is moved out.
  void claimed(std::uint64_t end) {
    freed.store(end, std::memory_order_release);
    writers.wake(mutex);
  }

  // --- cuts ---------------------------------------------------------------

  /// Runs f under mutex, then wakes both sides, even when f throws:
  /// waiters must re-check what f changed.
  template <typename F>
  void cut(F&& f) {
    std::scoped_lock lock{mutex};
    try {
      f();
    } catch (...) {
      readers.wake_locked();
      writers.wake_locked();
      throw;
    }
    readers.wake_locked();
    writers.wake_locked();
  }

  /// In a cut: stops the producer; returns the final tail.
  std::uint64_t stop_producer() {
    return index(ring.tail.fetch_or(kStop, std::memory_order_seq_cst));
  }

  /// In a cut: stops the consumer, then waits out its claim in flight;
  /// returns head.
  std::uint64_t stop_consumer() {
    const std::uint64_t h =
        index(ring.head.fetch_or(kStop, std::memory_order_seq_cst));
    while (freed.load(std::memory_order_acquire) != h) {
      std::this_thread::yield();
    }
    return h;
  }

  /// In a cut that stopped the consumer: moves it on to `h` and reopens
  /// it, unless a flag stops it for good.
  void resume_consumer(std::uint64_t h) {
    freed.store(h, std::memory_order_release);
    const bool stopped =
        (flags.load(std::memory_order_relaxed) & ~kProducerOnly) != 0;
    ring.head.store(stopped ? h | kStop : h, std::memory_order_release);
  }

  /// In a cut that stopped the consumer: leaves it at `t` for good; the
  /// cut discarded what lay before.
  void end_consumer(std::uint64_t t) {
    freed.store(t, std::memory_order_release);
    ring.head.store(t | kStop, std::memory_order_release);
  }

  /// The producer is done: what is buffered drains, then end of stream.
  void close_write() {
    cut([&] {
      stop_producer();
      flags.fetch_or(kWriteClosed, std::memory_order_release);
    });
  }

  /// The consumer is gone: `discard(h, t)` drops the tokens buffered in
  /// [h, t), and the producer's next put fails (cascading termination).
  template <typename Discard>
  void close_read(Discard&& discard) {
    cut([&] {
      const std::uint64_t t = stop_producer();
      discard(stop_consumer(), t);
      end_consumer(t);
      flags.fetch_or(kReadClosed, std::memory_order_release);
    });
  }

  /// Stops both sides for good; each wakes to Interrupted.
  void abort() {
    cut([&] {
      stop_producer();
      ring.head.fetch_or(kStop, std::memory_order_seq_cst);
      flags.fetch_or(kAborted, std::memory_order_release);
    });
  }

  /// Raises the capacity to `n` (never lowers it), and the bound with it.
  void grow(std::size_t n) {
    cut([&] {
      if (n <= capacity) return;
      capacity = n;
      if (bound.load(std::memory_order_relaxed) < n) {
        bound.store(n, std::memory_order_relaxed);
      }
    });
  }

  // --- slow-path edges ----------------------------------------------------

  /// The producer found kStop, lost its publish, or found no room.
  /// Holding mutex waits out any cut in progress.  Returns the flags once
  /// any is set, having freed the storage if one ended the consumer; the
  /// adapter turns them into its result.  Else returns 0 for a retry
  /// once `make_room()` made room or, when it did not, once the producer
  /// parked while the ring held the bound.  A park records the tokens
  /// buffered times `token_bytes` and its duration in `timing`.
  template <typename MakeRoom>
  std::uint8_t producer_edge(std::uint64_t token_bytes,
                             LatencyHistogram* timing, MakeRoom&& make_room) {
    std::unique_lock lock{mutex};
    const std::uint8_t f = flags.load(std::memory_order_relaxed);
    if (f != 0) {
      if ((f & kConsumerEnded) != 0) ring.release();
      return f;
    }
    if (!make_room()) {
      writers.park(lock, [this] { return full(); },
                   sched::WaitTag::writing(flight_id, size() * token_bytes,
                                           timing));
    }
    return 0;
  }

  /// The consumer found kStop, lost its claim, or found the ring empty.
  /// Returns the flags that stop it, or the flags with kWriteClosed at
  /// end of stream (the ring drained); else 0 for a retry, after parking
  /// while the ring was empty.
  std::uint8_t consumer_edge(LatencyHistogram* timing) {
    std::unique_lock lock{mutex};
    const std::uint8_t f = flags.load(std::memory_order_relaxed);
    if ((f & ~kProducerOnly) != 0) return f;
    // Read after the flags, under mutex: with kWriteClosed set this is
    // the final tail, so a token published just before the close is
    // taken, not dropped.
    if (!empty()) return 0;
    if ((f & kWriteClosed) != 0) return f;
    readers.park(lock, [this] { return empty(); },
                 sched::WaitTag::reading(flight_id, 0, timing));
    return 0;
  }

  // --- observation --------------------------------------------------------

  /// The caller holds mutex, so the counts are exact.
  RingStats stats() const {
    return {static_cast<std::size_t>(size()), capacity, readers.size(),
            writers.size(), has(kWriteClosed), has(kReadClosed)};
  }

  /// Tokens buffered.
  std::uint64_t size() const {
    const std::uint64_t h = index(ring.head.load(std::memory_order_acquire));
    return index(ring.tail.load(std::memory_order_acquire)) - h;
  }

  /// Park predicates: the caller holds mutex and found no flag, and every
  /// cut holds mutex too, so only the positions can move meanwhile.
  bool empty() const {
    return index(ring.head.load(std::memory_order_seq_cst)) ==
           index(ring.tail.load(std::memory_order_seq_cst));
  }
  bool full() const {
    return index(ring.tail.load(std::memory_order_seq_cst)) -
               index(ring.head.load(std::memory_order_seq_cst)) >=
           bound.load(std::memory_order_relaxed);
  }

  bool has(std::uint8_t flag) const {
    return (flags.load(std::memory_order_acquire) & flag) != 0;
  }

  Storage ring;
  // Read by the producer per token: a Pipe's bound and peak, and the
  // readers' count a publish checks.
  alignas(64) std::atomic<std::uint64_t> bound;  // capacity, or no bound
  /// The most tokens a publish has found buffered, for adapters that
  /// report it (Pipe); raised by the producer only.
  std::atomic<std::uint64_t> peak{0};
  sched::Sleepers readers;
  std::atomic<std::uint8_t> flags{0};
  // Written by the consumer per claim; the writers' count is read there.
  alignas(64) std::atomic<std::uint64_t> freed{0};
  sched::Sleepers writers;
  /// Tags flight-recorder block/unblock events with the owning channel's
  /// id (core::ChannelState::id).  Set once, before the ring is shared.
  std::uint64_t flight_id = 0;
  mutable std::mutex mutex;
  std::size_t capacity;  // under mutex

 private:
  static constexpr std::uint8_t kProducerOnly = kWriteClosed | kWriteStopped;
  static constexpr std::uint8_t kConsumerEnded =
      static_cast<std::uint8_t>(~(kProducerOnly | kAborted));
};

}  // namespace dpn::io
