#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "sched/waiters.hpp"

/// Fiber-aware blocking queue.
///
/// A consumer that blocks inside a fiber must suspend the *fiber*
/// (freeing the worker thread to run other processes), not park the OS
/// thread.  With one worker that would be an instant deadlock (the Turnstile
/// waiting for results that can only be produced by fibers its own wait
/// is starving).  pop() therefore parks on sched::Waiters, like every
/// channel wait, and names the queue to the flight recorder; producers
/// may be plain threads (the Turnstile's forwarders are) or fibers, push
/// never blocks.
namespace dpn::sched {

/// Numbers the queues 1, 2, ... in construction order, for flight events.
inline std::uint64_t next_queue_id() {
  static std::atomic<std::uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Unbounded multi-producer multi-consumer queue with close semantics.
/// pop() blocks until an item is available or the queue is closed *and*
/// drained, in which case it returns nullopt.
template <typename T>
class BlockingQueue {
 public:
  /// Returns false if the queue was already closed (item dropped).
  bool push(T item) {
    std::scoped_lock lock{mutex_};
    if (closed_) return false;
    items_.push_back(std::move(item));
    waiters_.wake_one();  // one new item, one consumer
    return true;
  }

  /// Blocks for the next item; nullopt means closed-and-drained.  Callable
  /// from a fiber (suspends it) or a plain thread.
  std::optional<T> pop() {
    std::unique_lock lock{mutex_};
    while (items_.empty() && !closed_) {
      waiters_.wait(lock, WaitTag::popping(id_));
    }
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    std::scoped_lock lock{mutex_};
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  void close() {
    std::scoped_lock lock{mutex_};
    closed_ = true;
    waiters_.wake_all();
  }

 private:
  const std::uint64_t id_ = next_queue_id();
  std::mutex mutex_;
  Waiters waiters_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace dpn::sched
