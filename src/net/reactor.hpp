#pragma once

#include <atomic>
#include <mutex>
#include <vector>

#include "net/event_loop.hpp"

/// The process-wide reactor: a pool of EventLoops, one per core (the
/// ponyc-asio shape).  Each mux connection, dialed or accepted, is
/// assigned one loop round-robin when it starts and keeps it for life
/// (its timers and posts stay loop-local), so one hot connection cannot
/// serialize every other connection's frames behind its reactor
/// callbacks.  Every mux socket operation runs on a loop thread.  The
/// first loop's timer wheel also serves fiber deadlines
/// (sched::install_deadline_timer).
///
/// Loops are created lazily: a process that never touches the network
/// spawns no reactor threads, and one with a single connection spawns
/// exactly one.
namespace dpn::net {

/// A fixed-size pool of lazily-constructed EventLoops.
class EventLoopPool {
 public:
  explicit EventLoopPool(std::size_t size);
  /// Joins and destroys the loops that were created (test pools; the
  /// process-wide reactor() is leaked and never runs this).
  ~EventLoopPool();

  EventLoopPool(const EventLoopPool&) = delete;
  EventLoopPool& operator=(const EventLoopPool&) = delete;

  std::size_t size() const { return slots_.size(); }

  /// The loop in slot `index % size()`, constructing it on first use.
  EventLoop& at(std::size_t index);

  /// Round-robin assignment: what mux connections use at establishment.
  EventLoop& next();

  /// Loops actually constructed so far (tests/introspection).
  std::size_t live_loops() const;

 private:
  std::vector<std::atomic<EventLoop*>> slots_;
  std::mutex create_mutex_;
  std::atomic<std::size_t> cursor_{0};
};

/// Pool size the process-wide reactor() is built with: DPN_NET_LOOPS if
/// set (clamped to >= 1), else the hardware concurrency.
std::size_t default_reactor_loops();

/// The process-wide reactor pool.  Constructed on first use and leaked
/// on purpose: loop threads must not be torn down by static destruction
/// order (same rule as the transport singletons).
EventLoopPool& reactor();

}  // namespace dpn::net
