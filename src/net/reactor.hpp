#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "net/event_loop.hpp"

/// The process-wide reactor: a pool of EventLoops, one per core (the
/// ponyc-asio shape), replacing the single loop the mux transport used
/// to own.  Two kinds of work ride on it:
///
///   * mux connections -- each accepted/dialed shared connection is
///     assigned one loop round-robin at establishment and keeps it for
///     life (its timers and posts stay loop-local), so one hot
///     connection can no longer serialize every other connection's
///     frames behind its reactor callbacks.
///
///   * fiber fd waits -- a fiber that would block in a raw socket wait
///     (Socket::connect's in-progress wait, Socket::wait_readable, both
///     used when a fiber dials a new mux connection) registers the
///     descriptor here and parks on a sched::Waiters list instead of
///     pinning its OS worker in poll.  The loop's edge notification
///     makes the fiber runnable again.
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

  /// Stable per-descriptor choice: what fiber fd waits use, so repeated
  /// waits on one socket keep hitting the same epoll instance.
  EventLoop& loop_for(int fd);

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

/// Blocks the caller until `fd` is ready (readable, or writable when
/// `want_write`) or `timeout` elapses; nullopt means no timeout.
/// Returns false only on timeout.  The caller parks on a sched::Waiters
/// list with the wakeup driven by reactor() -- on a fiber the OS worker
/// stays free, and so does it while a timeout runs: fiber deadlines are
/// served by the first reactor loop's timer wheel (install_deadline_timer
/// in sched/waiters.hpp).  May report ready spuriously (e.g. when the descriptor could
/// not be registered); callers must re-probe with a non-blocking
/// operation and wait again, condition-variable style.
bool wait_fd_ready(int fd, bool want_write,
                   std::optional<std::chrono::milliseconds> timeout);

}  // namespace dpn::net
