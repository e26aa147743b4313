#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>

#include "obs/flight.hpp"
#include "support/histogram.hpp"

/// The one blocking wait of the runtime (DESIGN.md section 7, "Waiting").
///
/// Every place that parks a caller keeps its own mutex and wait condition
/// and parks on a Waiters list beside them; whether the caller is an M:N
/// fiber (suspended, its worker freed) or a thread (asleep on a futex of
/// its own) is decided here, once.  As with a condition variable, the
/// owner's mutex is held for every call and a woken caller re-checks its
/// predicate.  Beyond it: a node leaves the list when woken, under that
/// mutex, so size() is the exact count of parked callers not yet woken;
/// and a wake racing a deadline is never lost and never delivered twice.
namespace dpn::sched {

/// What one wait tells the flight recorder and the owner's timing.  A
/// default tag records nothing and times nothing.
struct WaitTag {
  /// Blocked read / blocked write on channel `id` with `buffered` bytes
  /// at the edge; `timing` (may be null) receives the wait's duration.
  static WaitTag reading(std::uint64_t id, std::uint64_t buffered,
                         LatencyHistogram* timing = nullptr) {
    return {true, obs::FlightKind::kChanBlockRead,
            obs::FlightKind::kChanUnblockRead, id, buffered, timing};
  }
  static WaitTag writing(std::uint64_t id, std::uint64_t buffered,
                         LatencyHistogram* timing = nullptr) {
    return {true, obs::FlightKind::kChanBlockWrite,
            obs::FlightKind::kChanUnblockWrite, id, buffered, timing};
  }
  /// Awaiting the remote peer that will dial in with `token`.
  static WaitTag rendezvous(std::uint64_t token) {
    return {true, obs::FlightKind::kRendezvousWait,
            obs::FlightKind::kRendezvousResume, token, 0, nullptr};
  }
  /// Awaiting the preface of the mux connection it dials to `port`.
  static WaitTag dialing(std::uint64_t port) {
    return {true, obs::FlightKind::kNetDialWait,
            obs::FlightKind::kNetDialResume, port, 0, nullptr};
  }
  /// Popping the empty sched::BlockingQueue numbered `queue`.
  static WaitTag popping(std::uint64_t queue) {
    return {true, obs::FlightKind::kQueueWait, obs::FlightKind::kQueueResume,
            queue, 0, nullptr};
  }

  /// Record `block` (a = id, b = detail) on parking and `unblock`
  /// (a = id, b = nanoseconds parked) on waking.
  bool recorded = false;
  obs::FlightKind block{};
  obs::FlightKind unblock{};
  std::uint64_t id = 0;
  std::uint64_t detail = 0;
  LatencyHistogram* timing = nullptr;
};

/// Where a fiber's timed wait gets its timeout: the scheduler has no
/// timers, the network layer's event loop installs itself here
/// (net/reactor.cpp).  With none installed, a timed wait on a fiber parks
/// its worker like a thread.
class DeadlineTimer {
 public:
  /// Runs `fire` once, off the scheduler's workers, no earlier than
  /// `deadline`.  Any thread may call.  A wait woken first leaves its
  /// timer armed (timed fiber waits are rare: connects, lease polls).
  virtual void arm(std::chrono::steady_clock::time_point deadline,
                   std::function<void()> fire) = 0;

 protected:
  ~DeadlineTimer() = default;
};

/// Installs the process-wide deadline source (nullptr removes it).
void install_deadline_timer(DeadlineTimer* timer);

/// An intrusive FIFO of parked callers; its nodes live on the waiters'
/// own stacks.  Not internally synchronized: the owner's mutex guards
/// every call (see the contract above).
class Waiters {
 public:
  using Clock = std::chrono::steady_clock;

  Waiters() = default;
  Waiters(const Waiters&) = delete;
  Waiters& operator=(const Waiters&) = delete;

  /// Releases `lock`, parks until woken, re-acquires `lock`.
  void wait(std::unique_lock<std::mutex>& lock, const WaitTag& tag = {});

  /// wait() with a deadline: true when woken, false when the deadline
  /// passed first (immediately, without parking, if it already has).
  bool wait_until(std::unique_lock<std::mutex>& lock,
                  Clock::time_point deadline, const WaitTag& tag = {});

  /// Wakes the oldest waiter; false when there was none.
  bool wake_one();
  /// Wakes every waiter; returns how many.
  std::size_t wake_all();

  /// Parked callers not yet woken (exact under the owner's mutex).
  std::size_t size() const { return size_; }

 private:
  struct Node;

  bool park(std::unique_lock<std::mutex>& lock,
            const Clock::time_point* deadline, const WaitTag& tag);
  void link(Node& node);
  void unlink(Node& node);
  /// Hands an unlinked node its wake; false when its deadline got there
  /// first (the node is then the deadline's to wake).
  static bool wake(Node& node);

  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  std::size_t size_ = 0;
};

/// One side's sleepers of a lock-free single-producer single-consumer
/// channel (io::RingCore under io::Pipe and io::TypedRing, a mux
/// stream's two directions): a Waiters list plus a lock-free mirror of
/// its count, so that a steady stream, which never parks, never takes the
/// owner's mutex to wake.
///
/// The handshake is Dekker's.  A publisher moves the index word a parker
/// waits on with a seq_cst read-modify-write, then calls wake(), whose
/// seq_cst load of the count takes the mutex only when someone sleeps.
/// A parker, holding the mutex, counts itself with a seq_cst exchange and
/// then re-checks its condition; it sleeps only if that still holds.  Of
/// the two, at least one sees the other, so no wake is lost.  The owner
/// must make every other change to a parker's condition (a cut: close,
/// abort, growth) under the mutex and follow it with wake_locked().
class Sleepers {
 public:
  Sleepers() = default;
  Sleepers(const Sleepers&) = delete;
  Sleepers& operator=(const Sleepers&) = delete;

  /// Caller holds the owner's mutex.  Unless `must_wait()` is false,
  /// checked before and again after counting the caller, runs
  /// `sleep(waiters)` -- a wait on the list -- and returns its result
  /// (false: a deadline passed first); else returns true at once.
  template <class MustWait, class Sleep>
  bool park(MustWait&& must_wait, Sleep&& sleep) {
    if (!must_wait()) return true;
    sleeping_.exchange(static_cast<std::uint32_t>(waiters_.size() + 1),
                       std::memory_order_seq_cst);
    const bool woken = !must_wait() || sleep(waiters_);
    sleeping_.store(static_cast<std::uint32_t>(waiters_.size()),
                    std::memory_order_relaxed);
    return woken;
  }

  /// park() with a plain wait on the list.
  template <class MustWait>
  void park(std::unique_lock<std::mutex>& lock, MustWait&& must_wait,
            const WaitTag& tag) {
    park(must_wait, [&](Waiters& waiters) {
      waiters.wait(lock, tag);
      return true;
    });
  }

  /// Publisher, after moving its word: wakes every sleeper, taking
  /// `mutex` (the owner's) only when the count shows one.
  void wake(std::mutex& mutex) {
    if (sleeping_.load(std::memory_order_seq_cst) == 0) return;
    std::scoped_lock lock{mutex};
    wake_locked();
  }

  /// wake() for a caller holding the owner's mutex.  Every sleeper
  /// leaves the list, so the count drops to zero with it.
  void wake_locked() {
    waiters_.wake_all();
    sleeping_.store(0, std::memory_order_relaxed);
  }

  /// Parked callers not yet woken (exact under the owner's mutex).
  std::size_t size() const { return waiters_.size(); }

 private:
  Waiters waiters_;
  std::atomic<std::uint32_t> sleeping_{0};
};

}  // namespace dpn::sched
