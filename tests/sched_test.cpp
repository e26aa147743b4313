#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/channel.hpp"
#include "core/network.hpp"
#include "core/process.hpp"
#include "io/data.hpp"
#include "io/pipe.hpp"
#include "processes/basic.hpp"
#include "processes/sieve.hpp"
#include "sched/queue.hpp"
#include "sched/scheduler.hpp"
#include "sched/waiters.hpp"
#include "support/error.hpp"

namespace {

using dpn::UsageError;
using dpn::core::Network;
using dpn::processes::Collect;
using dpn::processes::CollectSink;
using dpn::processes::Sequence;
using dpn::processes::Sift;
namespace sched = dpn::sched;

sched::SchedulerOptions mn_options(unsigned workers) {
  sched::SchedulerOptions options;
  options.mode = sched::SchedMode::kWorkSteal;
  options.workers = workers;
  return options;
}

// --- SchedulerOptions / stack configuration (DPN_STACK_KB) ------------------

TEST(SchedulerOptions, StackSizeDefaultsAndExplicitOverride) {
  unsetenv("DPN_STACK_KB");
  sched::SchedulerOptions options;
  EXPECT_EQ(options.resolved_stack_bytes(),
            sched::SchedulerOptions::kDefaultStackKb * 1024);
  options.stack_kb = 64;
  EXPECT_EQ(options.resolved_stack_bytes(), 64u * 1024);
}

TEST(SchedulerOptions, SubMinimumStackIsRejected) {
  sched::SchedulerOptions options;
  options.stack_kb = sched::SchedulerOptions::kMinStackKb - 1;
  EXPECT_THROW(options.resolved_stack_bytes(), UsageError);
  // The rejection also fires at scheduler construction ...
  EXPECT_THROW(sched::Scheduler{options}, UsageError);
  // ... and at Network configuration time.
  Network network;
  EXPECT_THROW(network.set_scheduler(options), UsageError);
}

TEST(SchedulerOptions, EnvStackOverride) {
  setenv("DPN_STACK_KB", "256", 1);
  sched::SchedulerOptions options;
  EXPECT_EQ(options.resolved_stack_bytes(), 256u * 1024);
  // An explicit stack_kb beats the environment.
  options.stack_kb = 32;
  EXPECT_EQ(options.resolved_stack_bytes(), 32u * 1024);
  // A sub-minimum environment value is rejected, not silently clamped.
  setenv("DPN_STACK_KB", "4", 1);
  options.stack_kb = 0;
  EXPECT_THROW(options.resolved_stack_bytes(), UsageError);
  unsetenv("DPN_STACK_KB");
}

TEST(SchedulerOptions, EnvModeSelection) {
  setenv("DPN_SCHED", "mn", 1);
  EXPECT_EQ(sched::SchedulerOptions::from_env().mode,
            sched::SchedMode::kWorkSteal);
  setenv("DPN_SCHED", "threads", 1);
  EXPECT_EQ(sched::SchedulerOptions::from_env().mode,
            sched::SchedMode::kThreadPerProcess);
  setenv("DPN_SCHED", "bogus", 1);
  EXPECT_EQ(sched::SchedulerOptions::from_env().mode,
            sched::SchedMode::kThreadPerProcess);
  unsetenv("DPN_SCHED");
  setenv("DPN_WORKERS", "3", 1);
  EXPECT_EQ(sched::SchedulerOptions::from_env().workers, 3u);
  unsetenv("DPN_WORKERS");
}

// --- Fiber execution --------------------------------------------------------

TEST(Scheduler, RunsFibersToCompletionAndQuiesces) {
  sched::Scheduler scheduler{mn_options(2)};
  std::atomic<int> sum{0};
  for (int i = 0; i < 500; ++i) {
    scheduler.spawn([&sum] { sum.fetch_add(1); });
  }
  scheduler.wait_quiescent();
  EXPECT_EQ(sum.load(), 500);
  EXPECT_EQ(scheduler.live_fibers(), 0u);
  const sched::Scheduler::Counters counters = scheduler.counters();
  EXPECT_EQ(counters.spawned, 500u);
  EXPECT_EQ(counters.completed, 500u);
  EXPECT_GE(counters.dispatches, 500u);
}

TEST(Scheduler, OnFiberOnlyOnWorkers) {
  EXPECT_EQ(sched::current_fiber(), nullptr);
  EXPECT_EQ(sched::Scheduler::current(), nullptr);
  EXPECT_FALSE(sched::spawn_detached([] {}));  // off-worker: caller falls back

  sched::Scheduler scheduler{mn_options(1)};
  std::atomic<bool> was_on_fiber{false};
  scheduler.spawn(
      [&was_on_fiber] { was_on_fiber = sched::current_fiber() != nullptr; });
  scheduler.wait_quiescent();
  EXPECT_TRUE(was_on_fiber.load());
}

TEST(Scheduler, FibersSpawnDetachedSiblings) {
  sched::Scheduler scheduler{mn_options(2)};
  std::atomic<int> done{0};
  scheduler.spawn([&done] {
    for (int i = 0; i < 32; ++i) {
      EXPECT_TRUE(sched::spawn_detached([&done] { done.fetch_add(1); }));
    }
  });
  scheduler.wait_quiescent();
  EXPECT_EQ(done.load(), 32);
  EXPECT_EQ(scheduler.counters().completed, 33u);
}

TEST(Scheduler, EscapedExceptionsAreContained) {
  sched::Scheduler scheduler{mn_options(1)};
  std::atomic<int> after{0};
  scheduler.spawn([] { throw std::runtime_error{"escaped"}; });
  scheduler.spawn([&after] { after.fetch_add(1); });
  scheduler.wait_quiescent();
  EXPECT_EQ(after.load(), 1);  // the worker survived the throwing fiber
}

TEST(Scheduler, ManyFibersOnFewWorkers) {
  // 10k fibers on 2 workers: the whole point of M:N.  Thread-per-process
  // at this size would need ~80 GB of reserved stack.
  sched::SchedulerOptions options = mn_options(2);
  options.stack_kb = 16;
  sched::Scheduler scheduler{options};
  std::atomic<std::int64_t> sum{0};
  for (int i = 0; i < 10000; ++i) {
    scheduler.spawn([&sum, i] { sum.fetch_add(i); });
  }
  scheduler.wait_quiescent();
  EXPECT_EQ(sum.load(), 10000LL * 9999 / 2);
}

// --- Pipe integration: run-to-block + wakeup handshake ----------------------

TEST(Scheduler, PipeBlockingSuspendsAndResumesFibers) {
  sched::Scheduler scheduler{mn_options(2)};
  // Tiny pipe so the writer run-to-blocks constantly.
  auto pipe = std::make_shared<dpn::io::Pipe>(8);
  constexpr int kBytes = 4096;
  std::vector<std::uint8_t> received;
  scheduler.spawn([pipe] {
    for (int i = 0; i < kBytes; ++i) {
      const auto b = static_cast<std::uint8_t>(i & 0xff);
      pipe->write({&b, 1});
    }
    pipe->close_write();
  });
  scheduler.spawn([pipe, &received] {
    std::uint8_t chunk[64];
    for (;;) {
      const std::size_t n = pipe->read_some({chunk, sizeof chunk});
      if (n == 0) break;
      received.insert(received.end(), chunk, chunk + n);
    }
  });
  scheduler.wait_quiescent();
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kBytes));
  for (int i = 0; i < kBytes; ++i) {
    ASSERT_EQ(received[static_cast<std::size_t>(i)],
              static_cast<std::uint8_t>(i & 0xff));
  }
}

TEST(Scheduler, PipeAbortWakesSuspendedFiber) {
  sched::Scheduler scheduler{mn_options(1)};
  auto pipe = std::make_shared<dpn::io::Pipe>(8);
  std::atomic<bool> interrupted{false};
  scheduler.spawn([pipe, &interrupted] {
    std::uint8_t chunk[8];
    try {
      pipe->read_some({chunk, sizeof chunk});  // empty pipe: suspends
    } catch (const dpn::Interrupted&) {
      interrupted = true;
    }
  });
  // Give the fiber time to park, then abort from off-scheduler.
  while (pipe->blocked_readers() == 0) std::this_thread::yield();
  pipe->abort();
  scheduler.wait_quiescent();
  EXPECT_TRUE(interrupted.load());
}

TEST(Scheduler, MixedFiberAndThreadWaitersCoexist) {
  // A fiber produces, a plain OS thread consumes: the cv path and the
  // fiber path share one pipe.
  sched::Scheduler scheduler{mn_options(1)};
  auto pipe = std::make_shared<dpn::io::Pipe>(4);
  scheduler.spawn([pipe] {
    for (int i = 0; i < 100; ++i) {
      const auto b = static_cast<std::uint8_t>(i);
      pipe->write({&b, 1});
    }
    pipe->close_write();
  });
  std::size_t total = 0;
  std::jthread consumer{[pipe, &total] {
    std::uint8_t chunk[16];
    while (const std::size_t n = pipe->read_some({chunk, sizeof chunk})) {
      total += n;
    }
  }};
  consumer.join();
  scheduler.wait_quiescent();
  EXPECT_EQ(total, 100u);
}

TEST(Scheduler, BlockingQueuePopSuspendsFiber) {
  // The Turnstile deadlock shape: a fiber pops from an empty queue that
  // only plain threads feed.  The pop must suspend the fiber (not wedge
  // the lone worker) so other fibers keep running meanwhile.
  sched::Scheduler scheduler{mn_options(1)};
  sched::BlockingQueue<int> queue;
  std::atomic<int> sum{0};
  std::atomic<int> side_work{0};
  scheduler.spawn([&queue, &sum] {
    while (auto item = queue.pop()) sum.fetch_add(*item);
  });
  // If the popping fiber held the worker hostage this fiber never runs.
  scheduler.spawn([&side_work] { side_work.store(1); });
  while (side_work.load() == 0) std::this_thread::yield();
  std::jthread producer{[&queue] {
    for (int i = 1; i <= 100; ++i) queue.push(i);
    queue.close();
  }};
  producer.join();
  scheduler.wait_quiescent();
  EXPECT_EQ(sum.load(), 5050);
}

// --- WaitGroup --------------------------------------------------------------

TEST(WaitGroup, FiberAndThreadWaiters) {
  sched::Scheduler scheduler{mn_options(2)};
  sched::WaitGroup group;
  group.add(3);
  std::atomic<int> fired{0};
  for (int i = 0; i < 3; ++i) {
    scheduler.spawn([&group, &fired] {
      fired.fetch_add(1);
      group.done();
    });
  }
  group.wait();  // plain-thread wait
  EXPECT_EQ(fired.load(), 3);

  // Fiber-side wait: a fiber parks on the group without pinning a worker.
  sched::WaitGroup inner;
  inner.add(1);
  std::atomic<bool> waited{false};
  scheduler.spawn([&inner, &waited] {
    inner.wait();
    waited = true;
  });
  scheduler.spawn([&inner] { inner.done(); });
  scheduler.wait_quiescent();
  EXPECT_TRUE(waited.load());
}

// --- Network integration ----------------------------------------------------

// --- Waiters: the one blocking wait ------------------------------------------

using namespace std::chrono_literals;

/// Polls `done` (under no lock of ours) until it holds or 10 s pass.
template <typename F>
bool eventually(F done) {
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// A mutex plus a Waiters list, and the lock-taking probes the tests use.
struct WaitSite {
  std::mutex mutex;
  sched::Waiters waiters;

  std::size_t size() {
    std::scoped_lock lock{mutex};
    return waiters.size();
  }
  /// Wakes everyone left, so a failed assertion cannot hang the test.
  ~WaitSite() {
    std::scoped_lock lock{mutex};
    waiters.wake_all();
  }
};

TEST(Waiters, FifoAcrossFibersAndThreads) {
  sched::Scheduler scheduler{mn_options(1)};
  std::vector<std::jthread> threads;
  WaitSite site;
  std::vector<int> order;  // guarded by site.mutex
  const auto park = [&](int id) {
    std::unique_lock lock{site.mutex};
    site.waiters.wait(lock);
    order.push_back(id);
  };
  // Even ids are threads, odd ids fibers; each parks before the next.
  constexpr int kWaiters = 6;
  for (int id = 0; id < kWaiters; ++id) {
    if (id % 2 == 0) {
      threads.emplace_back([&park, id] { park(id); });
    } else {
      scheduler.spawn([&park, id] { park(id); }, "waiter");
    }
    ASSERT_TRUE(eventually([&] { return site.size() == std::size_t(id + 1); }));
  }
  for (int id = 0; id < kWaiters; ++id) {
    {
      std::scoped_lock lock{site.mutex};
      ASSERT_TRUE(site.waiters.wake_one());
    }
    ASSERT_TRUE(eventually([&] {
      std::scoped_lock lock{site.mutex};
      return order.size() == std::size_t(id + 1);
    }));
  }
  std::scoped_lock lock{site.mutex};
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_FALSE(site.waiters.wake_one());
}

TEST(Waiters, SizeDropsAtWakeBeforeTheWaiterRuns) {
  sched::Scheduler scheduler{mn_options(1)};
  std::jthread thread;
  WaitSite site;
  std::atomic<int> resumed{0};
  const auto park = [&] {
    std::unique_lock lock{site.mutex};
    site.waiters.wait(lock);
    ++resumed;
  };
  thread = std::jthread{park};
  ASSERT_TRUE(eventually([&] { return site.size() == 1; }));
  scheduler.spawn(park, "waiter");
  ASSERT_TRUE(eventually([&] { return site.size() == 2; }));
  {
    // Holding the lock, no woken waiter can have run: the count is the
    // waiters still parked, not the ones still on their way out.
    std::scoped_lock lock{site.mutex};
    EXPECT_TRUE(site.waiters.wake_one());
    EXPECT_EQ(site.waiters.size(), 1u);
    EXPECT_TRUE(site.waiters.wake_one());
    EXPECT_EQ(site.waiters.size(), 0u);
    EXPECT_EQ(resumed.load(), 0);
  }
  EXPECT_TRUE(eventually([&] { return resumed.load() == 2; }));
}

TEST(Waiters, WaitUntilTimesOutOnThreadsAndFibers) {
  WaitSite site;
  {
    std::unique_lock lock{site.mutex};
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(site.waiters.wait_until(lock, start + 20ms));
    EXPECT_GE(std::chrono::steady_clock::now() - start, 20ms);
    EXPECT_EQ(site.waiters.size(), 0u);
    // A deadline already past answers at once, without parking.
    EXPECT_FALSE(site.waiters.wait_until(lock, start));
  }
  // On one worker, a fiber's timed wait must give the worker back: the
  // sibling queued behind it runs before the deadline passes.
  sched::Scheduler scheduler{mn_options(1)};
  std::atomic<bool> sibling_ran{false};
  bool woken = true;
  bool saw_sibling = false;
  std::size_t left = 1;
  std::chrono::steady_clock::duration waited{};
  scheduler.spawn(
      [&] {
        scheduler.spawn([&] { sibling_ran = true; }, "sibling");
        std::unique_lock lock{site.mutex};
        const auto start = std::chrono::steady_clock::now();
        woken = site.waiters.wait_until(lock, start + 50ms);
        waited = std::chrono::steady_clock::now() - start;
        left = site.waiters.size();
        saw_sibling = sibling_ran.load();
      },
      "timed-waiter");
  scheduler.wait_quiescent();
  EXPECT_FALSE(woken);
  EXPECT_GE(waited, 50ms);
  EXPECT_EQ(left, 0u);
  EXPECT_TRUE(saw_sibling) << "the timed wait pinned the only worker";
}

TEST(Waiters, WakeAllRacingDeadlinesLosesNoWaiterAndWakesNoneTwice) {
  sched::Scheduler scheduler{mn_options(2)};
  constexpr int kPerKind = 4;
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE(round);
    WaitSite site;
    std::atomic<int> woken{0};
    std::atomic<int> timed_out{0};
    std::atomic<int> finished{0};
    const auto deadline = std::chrono::steady_clock::now() + 20ms;
    const auto wait = [&] {
      std::unique_lock lock{site.mutex};
      if (site.waiters.wait_until(lock, deadline)) {
        ++woken;
      } else {
        ++timed_out;
      }
      ++finished;
    };
    std::vector<std::jthread> threads;
    for (int i = 0; i < kPerKind; ++i) {
      threads.emplace_back(wait);
      scheduler.spawn(wait, "timed-waiter");
    }
    // Sweep the wake across the deadline (fiber deadlines fire on a
    // 10 ms timer tick, thread deadlines on the futex's own clock).
    std::this_thread::sleep_until(deadline - 5ms + (round % 8) * 2ms);
    std::size_t delivered = 0;
    {
      std::scoped_lock lock{site.mutex};
      delivered = site.waiters.wake_all();
      EXPECT_EQ(site.waiters.size(), 0u);
    }
    threads.clear();
    ASSERT_TRUE(eventually([&] { return finished.load() == 2 * kPerKind; }));
    EXPECT_EQ(static_cast<std::size_t>(woken.load()), delivered);
    EXPECT_EQ(woken.load() + timed_out.load(), 2 * kPerKind);
    EXPECT_EQ(site.size(), 0u);
  }
}

TEST(SchedNetwork, SequenceToCollectUnderWorkSteal) {
  Network network;
  network.set_scheduler(mn_options(2));
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  network.connect(
      [&](auto out) { return std::make_shared<Sequence>(0, out, 100); },
      [&](auto in) { return std::make_shared<Collect>(in, sink); },
      {.capacity = 64, .label = "seq"});
  network.run();
  const std::vector<std::int64_t> values = sink->values();
  ASSERT_EQ(values.size(), 100u);
  for (std::int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(values[static_cast<std::size_t>(i)], i);
  }
  const dpn::obs::NetworkSnapshot snap = network.snapshot();
  EXPECT_EQ(snap.sched_workers, 2u);
  EXPECT_GE(snap.sched_spawned, 2u);
  EXPECT_EQ(snap.sched_spawned, snap.sched_completed);
  EXPECT_GE(snap.sched_dispatches, snap.sched_spawned);
}

TEST(SchedNetwork, SieveInsertsFiltersAsDetachedFibers) {
  // Sift reconfigures the graph at runtime (Figure 8); under the M:N
  // scheduler its inserted Modulo processes must become fibers, not
  // threads -- every insertion past sched_spawned's initial 3 proves it.
  Network network;
  network.set_scheduler(mn_options(2));
  auto numbers = network.make_channel({.capacity = 64, .label = "numbers"});
  auto primes = network.make_channel({.capacity = 64, .label = "primes"});
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto sift = std::make_shared<Sift>(numbers->input(), primes->output());
  network.add(std::make_shared<Sequence>(2, numbers->output(), 99));  // 2..100
  network.add(sift);
  network.add(std::make_shared<Collect>(primes->input(), sink));
  network.run();
  const std::vector<std::int64_t> expected{2,  3,  5,  7,  11, 13, 17, 19, 23,
                                           29, 31, 37, 41, 43, 47, 53, 59, 61,
                                           67, 71, 73, 79, 83, 89, 97};
  EXPECT_EQ(sink->values(), expected);
  EXPECT_EQ(sift->filters_inserted(), expected.size());
  // 3 top-level processes + one detached fiber per inserted filter.
  EXPECT_EQ(network.snapshot().sched_spawned, 3u + expected.size());
}

TEST(SchedNetwork, ThreadModeRefusesOversizedGraph) {
  Network network;
  sched::SchedulerOptions options;  // thread-per-process
  options.max_threads = 2;
  network.set_scheduler(options);
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto mid = network.make_channel({.capacity = 64, .label = "a"});
  auto out = network.make_channel({.capacity = 64, .label = "b"});
  network.add(std::make_shared<Sequence>(0, mid->output(), 10));
  network.add(std::make_shared<dpn::processes::Modulo>(mid->input(),
                                                       out->output(), 2));
  network.add(std::make_shared<Collect>(out->input(), sink));
  EXPECT_THROW(network.start(), UsageError);
}

TEST(SchedNetwork, CompositeRunsComponentsAsSiblingFibers) {
  Network network;
  network.set_scheduler(mn_options(2));
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto composite = std::make_shared<dpn::core::CompositeProcess>();
  auto channel = network.make_channel({.capacity = 64, .label = "inner"});
  composite->add(std::make_shared<Sequence>(0, channel->output(), 50));
  composite->add(std::make_shared<Collect>(channel->input(), sink));
  network.add(composite);
  network.run();
  EXPECT_EQ(sink->values().size(), 50u);
  // The composite plus its two components all ran as fibers.
  EXPECT_GE(network.snapshot().sched_spawned, 3u);
}

}  // namespace
