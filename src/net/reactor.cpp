#include "net/reactor.hpp"

#include <algorithm>
#include <cstdlib>
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
}  // namespace dpn::net
