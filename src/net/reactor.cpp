#include "net/reactor.hpp"

#include <poll.h>
#include <sys/epoll.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <thread>

#include "sched/waiters.hpp"
#include "support/log.hpp"

namespace dpn::net {

EventLoopPool::EventLoopPool(std::size_t size)
    : slots_(size == 0 ? 1 : size) {}

EventLoopPool::~EventLoopPool() {
  for (auto& slot : slots_) {
    delete slot.load(std::memory_order_acquire);
  }
}

EventLoop& EventLoopPool::at(std::size_t index) {
  auto& slot = slots_[index % slots_.size()];
  EventLoop* loop = slot.load(std::memory_order_acquire);
  if (loop != nullptr) return *loop;
  std::scoped_lock lock{create_mutex_};
  loop = slot.load(std::memory_order_relaxed);
  if (loop == nullptr) {
    loop = new EventLoop;
    slot.store(loop, std::memory_order_release);
  }
  return *loop;
}

EventLoop& EventLoopPool::next() {
  return at(cursor_.fetch_add(1, std::memory_order_relaxed));
}

EventLoop& EventLoopPool::loop_for(int fd) {
  return at(static_cast<std::size_t>(fd < 0 ? 0 : fd));
}

std::size_t EventLoopPool::live_loops() const {
  std::size_t live = 0;
  for (const auto& slot : slots_) {
    if (slot.load(std::memory_order_acquire) != nullptr) ++live;
  }
  return live;
}

std::size_t default_reactor_loops() {
  if (const char* env = std::getenv("DPN_NET_LOOPS")) {
    const unsigned long parsed = std::strtoul(env, nullptr, 10);
    if (parsed >= 1) return static_cast<std::size_t>(parsed);
    log::warn("DPN_NET_LOOPS='", env, "' not a positive count; ",
              "using one loop per core");
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

EventLoopPool& reactor() {
  static EventLoopPool* pool = new EventLoopPool{default_reactor_loops()};
  return *pool;
}

namespace {

/// One in-flight fd wait: registered with a loop as an epoll handler,
/// woken by an edge.  Heap-allocated and kept alive by the posted
/// closures, so the loop's raw Handler* can never dangle -- the
/// unregister post holds the last reference.
struct FdWaiter final : EventLoop::Handler {
  explicit FdWaiter(std::uint32_t want_mask) : want(want_mask) {}

  void on_io(std::uint32_t events) override {  // loop thread
    // Error/hangup always count as ready: the caller's next non-blocking
    // probe is what surfaces the actual condition.
    if ((events & (want | EPOLLERR | EPOLLHUP)) == 0) return;
    set(ready);
  }

  void set(bool& flag) {
    std::scoped_lock lock{mutex};
    flag = true;
    waiters.wake_all();
  }

  const std::uint32_t want;

  std::mutex mutex;
  sched::Waiters waiters;
  bool ready = false;
  bool unregistered = false;

  // Loop-thread-only state (written by the registration post, read by
  // the unregister post; the loop serializes them).
  bool registered = false;
};

/// Serves sched::Waiters' fiber deadlines from the first reactor loop's
/// timer wheel: the runtime's one timer mechanism.
class ReactorDeadlines final : public sched::DeadlineTimer {
 public:
  void arm(std::chrono::steady_clock::time_point deadline,
           std::function<void()> fire) override {
    EventLoop& loop = reactor().at(0);
    loop.post([&loop, deadline, fire = std::move(fire)] {
      const auto delay = std::chrono::ceil<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      loop.add_timer(std::max(delay, std::chrono::milliseconds{0}), fire);
    });
  }
};

// Installed at load time and leaked, like reactor() itself.
[[maybe_unused]] const bool g_deadlines_installed = [] {
  sched::install_deadline_timer(new ReactorDeadlines);
  return true;
}();

}  // namespace

bool wait_fd_ready(int fd, bool want_write,
                   std::optional<std::chrono::milliseconds> timeout) {
  EventLoop& loop = reactor().loop_for(fd);
  const std::uint32_t want =
      want_write ? static_cast<std::uint32_t>(EPOLLOUT)
                 : static_cast<std::uint32_t>(EPOLLIN | EPOLLRDHUP);
  auto waiter = std::make_shared<FdWaiter>(want);
  loop.post([&loop, waiter, fd, want_write] {
    try {
      loop.add(fd, waiter.get());
      waiter->registered = true;
    } catch (const std::exception& e) {
      // Could not register (most likely the fd is already in this
      // loop's epoll set from a concurrent wait).  Report spurious
      // readiness: the caller re-probes and either proceeds or waits
      // again, so nothing hangs.
      log::debug("reactor: fd ", fd, " wait registration failed: ", e.what());
      waiter->set(waiter->ready);
      return;
    }
    // Readiness that predates the registration produces no further
    // edge; probe once now that the registration is in place (any later
    // arrival is covered by epoll).
    pollfd probe{};
    probe.fd = fd;
    probe.events = static_cast<short>(want_write ? POLLOUT : POLLIN);
    if (::poll(&probe, 1, 0) != 0) waiter->set(waiter->ready);
  });

  const auto deadline = std::chrono::steady_clock::now() +
                        timeout.value_or(std::chrono::milliseconds{0});
  std::unique_lock lock{waiter->mutex};
  while (!waiter->ready) {
    if (!timeout) {
      waiter->waiters.wait(lock);
    } else if (!waiter->waiters.wait_until(lock, deadline)) {
      break;
    }
  }
  const bool ready = waiter->ready;
  lock.unlock();
  // Wait for the unregistration too: the caller may close the fd as
  // soon as this returns, and a removal that reached epoll after the
  // close could hit a reused descriptor.
  loop.post([&loop, waiter, fd] {
    if (waiter->registered) loop.remove(fd);
    waiter->set(waiter->unregistered);
  });
  lock.lock();
  while (!waiter->unregistered) waiter->waiters.wait(lock);
  return ready;
}

}  // namespace dpn::net
