#include "sched/waiters.hpp"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <ctime>
#include <memory>

#include "sched/fiber.hpp"

namespace dpn::sched {

namespace {

std::atomic<DeadlineTimer*> g_deadline_timer{nullptr};

/// Parks at least this long stay in the flight recorder's history.
constexpr std::chrono::milliseconds kHistoryWait{1};

/// A parked thread sleeps on its node's own futex word (libstdc++'s
/// semaphore spins and yields first).  Sleeps while `word` reads 0, at
/// most until `deadline` (CLOCK_MONOTONIC, as steady_clock); may return
/// early, callers re-check.
void futex_wait(std::atomic<std::uint32_t>& word,
                const Waiters::Clock::time_point* deadline) {
  timespec until{};
  if (deadline != nullptr) {
    const auto ns = std::chrono::nanoseconds{deadline->time_since_epoch()};
    until.tv_sec = static_cast<std::time_t>(ns.count() / 1000000000);
    until.tv_nsec = static_cast<long>(ns.count() % 1000000000);
  }
  ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
            FUTEX_WAIT_BITSET_PRIVATE, 0U,
            deadline != nullptr ? &until : nullptr, nullptr,
            FUTEX_BITSET_MATCH_ANY);
}

void futex_wake(std::atomic<std::uint32_t>& word) {
  ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
            FUTEX_WAKE_PRIVATE, 1, nullptr, nullptr, 0);
}

}  // namespace

void install_deadline_timer(DeadlineTimer* timer) {
  g_deadline_timer.store(timer, std::memory_order_release);
}

struct Waiters::Node {
  Node* prev = nullptr;
  Node* next = nullptr;
  /// The parked fiber; null for a thread, which sleeps on `posted`.
  Fiber* fiber = nullptr;
  std::atomic<std::uint32_t> posted{0};
  /// A fiber with a deadline: set by whichever of a waker and the timer
  /// claims the wake first.  Shared, because the timer may fire after
  /// this node is gone.
  std::shared_ptr<std::atomic<bool>> claimed;
  bool linked = false;
  bool woken = false;
};

void Waiters::wait(std::unique_lock<std::mutex>& lock, const WaitTag& tag) {
  park(lock, nullptr, tag);
}

bool Waiters::wait_until(std::unique_lock<std::mutex>& lock,
                         Clock::time_point deadline, const WaitTag& tag) {
  return park(lock, &deadline, tag);
}

bool Waiters::park(std::unique_lock<std::mutex>& lock,
                   const Clock::time_point* deadline, const WaitTag& tag) {
  if (deadline != nullptr && Clock::now() >= *deadline) return false;
  Node node;
  node.fiber = current_fiber();
  DeadlineTimer* timer = nullptr;
  if (deadline != nullptr && node.fiber != nullptr) {
    timer = g_deadline_timer.load(std::memory_order_acquire);
    if (timer == nullptr) node.fiber = nullptr;  // park the worker instead
  }
  // Parks are already slow, so the clock and the recorder cost nothing
  // that matters here; a wait that never parks never gets this far.
  const bool timed = tag.recorded || tag.timing != nullptr;
  if (tag.recorded) obs::flight_record(tag.block, tag.id, tag.detail);
  const Clock::time_point start = timed ? Clock::now() : Clock::time_point{};
  link(node);
  if (node.fiber != nullptr) {
    if (timer != nullptr) {
      node.claimed = std::make_shared<std::atomic<bool>>(false);
      timer->arm(*deadline, [claimed = node.claimed, fiber = node.fiber] {
        if (!claimed->exchange(true, std::memory_order_acq_rel)) {
          make_runnable(fiber);
        }
      });
    }
    // Unlock before switching: the waker needs this mutex, and a mutex
    // must never be held across a context switch (its owner is the OS
    // thread, which is about to run another fiber).  A waker that
    // requeues us before the switch completes makes the next worker spin
    // out our switch-out window (Fiber::in_switch_).
    lock.unlock();
    detail::switch_out(node.fiber);
    lock.lock();
  } else {
    lock.unlock();
    while (node.posted.load(std::memory_order_acquire) == 0 &&
           (deadline == nullptr || Clock::now() < *deadline)) {
      futex_wait(node.posted, deadline);
    }
    lock.lock();
  }
  // Still listed: nobody woke us, so the deadline passed.  Either way
  // the wake, if any, was handed over under the lock we now hold.
  if (node.linked) unlink(node);
  if (timed) {
    const auto waited = std::chrono::nanoseconds{Clock::now() - start};
    const auto ns = static_cast<std::uint64_t>(waited.count());
    if (tag.timing != nullptr) tag.timing->record(ns);
    // A park shorter than a millisecond is a streaming graph's normal
    // flow, not history worth a ring slot: take the block event back.
    if (tag.recorded && (waited >= kHistoryWait ||
                         !obs::flight_retract(tag.block, tag.id))) {
      obs::flight_record(tag.unblock, tag.id, ns);
    }
  }
  return node.woken;
}

void Waiters::link(Node& node) {
  node.prev = tail_;
  node.next = nullptr;
  (tail_ != nullptr ? tail_->next : head_) = &node;
  tail_ = &node;
  node.linked = true;
  ++size_;
}

void Waiters::unlink(Node& node) {
  (node.prev != nullptr ? node.prev->next : head_) = node.next;
  (node.next != nullptr ? node.next->prev : tail_) = node.prev;
  node.prev = node.next = nullptr;
  node.linked = false;
  --size_;
}

bool Waiters::wake(Node& node) {
  if (node.claimed &&
      node.claimed->exchange(true, std::memory_order_acq_rel)) {
    return false;
  }
  node.woken = true;
  // The woken caller must re-take the owner's mutex, which our caller
  // holds, before it can return and retire the node.
  if (node.fiber != nullptr) {
    make_runnable(node.fiber);
  } else {
    node.posted.store(1, std::memory_order_release);
    futex_wake(node.posted);
  }
  return true;
}

bool Waiters::wake_one() {
  while (Node* node = head_) {
    unlink(*node);
    if (wake(*node)) return true;
  }
  return false;
}

std::size_t Waiters::wake_all() {
  std::size_t woken = 0;
  while (Node* node = head_) {
    unlink(*node);
    if (wake(*node)) ++woken;
  }
  return woken;
}

}  // namespace dpn::sched
