#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/channel.hpp"
#include "core/network.hpp"
#include "core/process.hpp"
#include "io/data.hpp"
#include "processes/basic.hpp"
#include "processes/copy.hpp"
#include "processes/merge.hpp"

namespace dpn::core {
namespace {

using processes::Collect;
using processes::CollectSink;
using processes::Constant;
using processes::Identity;
using processes::OrderedMerge;
using processes::RouteByDivisibility;
using processes::Sequence;

// --- Channel ----------------------------------------------------------------

TEST(Channel, WriteReadThroughEndpoints) {
  Channel channel{16};
  io::DataOutputStream out{*channel.output()};
  io::DataInputStream in{*channel.input()};
  out.write_i64(12345);
  EXPECT_EQ(in.read_i64(), 12345);
}

TEST(Channel, ReaderBlocksOnEmpty) {
  Channel channel{16};
  std::jthread writer{[&] {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
    io::DataOutputStream out{*channel.output()};
    out.write_i64(7);
  }};
  io::DataInputStream in{*channel.input()};
  EXPECT_EQ(in.read_i64(), 7);
}

TEST(Channel, CloseOutputDeliversEof) {
  Channel channel{16};
  channel.output()->close();
  EXPECT_EQ(channel.input()->read(), -1);
}

TEST(Channel, CloseInputMakesWritesThrow) {
  Channel channel{16};
  channel.input()->close();
  io::DataOutputStream out{*channel.output()};
  EXPECT_THROW(out.write_i64(1), ChannelClosed);
}

TEST(Channel, ReadFullyBlocksForCompleteElement) {
  Channel channel{16};
  std::jthread writer{[&] {
    // Dribble one byte at a time; the reader's read_fully must wait for
    // all 8 (the blocking-read discipline).
    std::uint8_t bytes[8] = {0, 0, 0, 0, 0, 0, 0, 42};
    for (const std::uint8_t b : bytes) {
      channel.output()->write_byte(b);
      std::this_thread::sleep_for(std::chrono::milliseconds{1});
    }
  }};
  io::DataInputStream in{*channel.input()};
  EXPECT_EQ(in.read_i64(), 42);
}

TEST(Channel, SerializationWithoutDistThrows) {
  // Core refuses to serialize endpoints unless dpn_dist installed hooks.
  // (dist_test links the hooks; here they may already be installed by
  // another test binary -- so only assert the no-context error path.)
  Channel channel{16};
  EXPECT_THROW(serial::to_bytes(channel.input()), std::exception);
}

// --- IterativeProcess lifecycle ----------------------------------------------

class Recorder final : public IterativeProcess {
 public:
  explicit Recorder(long iterations) : IterativeProcess(iterations) {}

  int starts = 0;
  int steps = 0;
  int stops = 0;

  std::string type_name() const override { return "test.Recorder"; }
  void write_fields(serial::ObjectOutputStream&) const override {}

 protected:
  void on_start() override { ++starts; }
  void step() override { ++steps; }
  void on_stop() override { ++stops; }
};

TEST(IterativeProcess, RunsExactlyIterationLimit) {
  Recorder recorder{5};
  recorder.run();
  EXPECT_EQ(recorder.starts, 1);
  EXPECT_EQ(recorder.steps, 5);
  EXPECT_EQ(recorder.stops, 1);
}

class ThrowingProcess final : public IterativeProcess {
 public:
  bool stopped = false;
  std::string type_name() const override { return "test.Throwing"; }
  void write_fields(serial::ObjectOutputStream&) const override {}

 protected:
  void step() override { throw EndOfStream{}; }
  void on_stop() override { stopped = true; }
};

TEST(IterativeProcess, IoErrorStopsGracefullyAndRunsOnStop) {
  ThrowingProcess process;
  EXPECT_NO_THROW(process.run());
  EXPECT_TRUE(process.stopped);
}

class FailingProcess final : public IterativeProcess {
 public:
  bool stopped = false;
  std::string type_name() const override { return "test.Failing"; }
  void write_fields(serial::ObjectOutputStream&) const override {}

 protected:
  void step() override { throw std::runtime_error{"bug"}; }
  void on_stop() override { stopped = true; }
};

TEST(IterativeProcess, NonIoErrorPropagatesButCleansUp) {
  FailingProcess process;
  EXPECT_THROW(process.run(), std::runtime_error);
  EXPECT_TRUE(process.stopped);  // the `finally` still ran
}

TEST(IterativeProcess, StoppingClosesTrackedEndpoints) {
  auto channel = std::make_shared<Channel>(64);
  auto source = std::make_shared<Constant>(1, channel->output(), 3);
  source->run();
  // After the producer stopped, the consumer can drain 3 elements and
  // then sees end-of-stream (Section 3.4).
  io::DataInputStream in{*channel->input()};
  for (int i = 0; i < 3; ++i) EXPECT_EQ(in.read_i64(), 1);
  EXPECT_THROW(in.read_i64(), EndOfStream);
}

// --- Pause handshake -----------------------------------------------------------

void wait_for_state(const Process& process, obs::ProcessState state) {
  while (process.stats()->get_state() != state) std::this_thread::yield();
}

/// Reads i64 tokens and fails, with a non-I/O error, on the token 13.
class RejectThirteen final : public IterativeProcess {
 public:
  explicit RejectThirteen(std::shared_ptr<ChannelInputStream> in) {
    track_input(std::move(in));
  }
  std::string type_name() const override { return "test.RejectThirteen"; }
  void write_fields(serial::ObjectOutputStream&) const override {}

 protected:
  void step() override {
    io::DataInputStream in{*input(0)};
    if (in.read_i64() == 13) throw std::runtime_error{"token 13"};
  }
};

class FailingStart final : public IterativeProcess {
 public:
  std::string type_name() const override { return "test.FailingStart"; }
  void write_fields(serial::ObjectOutputStream&) const override {}

 protected:
  void on_start() override { throw std::runtime_error{"no start"}; }
  void step() override {}
};

TEST(PauseHandshake, AwaitPauseReturnsWhenStepThrows) {
  // A step that fails with anything but IoError still ends run(), and a
  // pending await_pause() (rmi::migrate's wait) must see that.
  auto channel = std::make_shared<Channel>(64);
  auto process = std::make_shared<RejectThirteen>(channel->input());
  std::exception_ptr failure;
  std::jthread runner{[&] {
    try {
      process->run();
    } catch (...) {
      failure = std::current_exception();
    }
  }};
  wait_for_state(*process, obs::ProcessState::kBlockedReading);
  process->request_pause();
  io::DataOutputStream out{*channel->output()};
  out.write_i64(13);
  EXPECT_FALSE(process->await_pause());
  runner.join();
  EXPECT_TRUE(failure != nullptr);

  FailingStart failing;
  failing.request_pause();
  EXPECT_THROW(failing.run(), std::runtime_error);
  EXPECT_FALSE(failing.await_pause());
}

TEST(PauseHandshake, PauseDuringBlockedReadParksAfterTheRead) {
  auto channel = std::make_shared<Channel>(64);
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto consumer = std::make_shared<Collect>(channel->input(), sink);
  std::jthread runner{[&] { consumer->run(); }};
  wait_for_state(*consumer, obs::ProcessState::kBlockedReading);
  consumer->request_pause();
  // The request cannot reach a process inside a channel read.
  std::this_thread::sleep_for(std::chrono::milliseconds{10});
  EXPECT_FALSE(consumer->paused());
  io::DataOutputStream out{*channel->output()};
  out.write_i64(7);
  ASSERT_TRUE(consumer->await_pause());
  // Parked at the next boundary: the read and its step both completed.
  EXPECT_EQ(sink->values(), std::vector<std::int64_t>{7});
  EXPECT_EQ(consumer->stats()->steps.load(), 1u);
  consumer->resume();
  out.write_i64(8);
  channel->output()->close();
  runner.join();
  EXPECT_EQ(sink->values(), (std::vector<std::int64_t>{7, 8}));
  EXPECT_EQ(consumer->stats()->steps.load(), 2u);
}

struct PausedRun {
  std::vector<std::int64_t> history;
  std::uint64_t producer_steps = 0;
  std::uint64_t consumer_steps = 0;
  int parked = 0;  // cycles that found their process parked
};

constexpr long kPausedRunTokens = 20000;

/// Sequence -> Collect over one local byte channel.  A driver thread runs
/// `cycles` request_pause/await_pause/resume cycles, on the producer and
/// the consumer in turn, while the stream flows.
PausedRun run_paused(const sched::SchedulerOptions& options, int cycles) {
  Network network;
  network.set_scheduler(options);
  auto channel = network.make_channel({.capacity = 64, .label = "paused"});
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto producer = std::make_shared<Sequence>(0, channel->output(),
                                             kPausedRunTokens, 3);
  auto consumer = std::make_shared<Collect>(channel->input(), sink);
  network.add(producer);
  network.add(consumer);
  // Requested before start, so the first cycle always parks the producer
  // at its first boundary.
  if (cycles > 0) producer->request_pause();
  PausedRun run;
  network.start();
  std::jthread driver{[&] {
    for (int i = 0; i < cycles; ++i) {
      IterativeProcess& target =
          i % 2 == 0 ? static_cast<IterativeProcess&>(*producer) : *consumer;
      target.request_pause();
      if (!target.await_pause()) continue;  // it already finished
      ++run.parked;
      EXPECT_TRUE(target.paused());
      target.resume();
    }
  }};
  driver.join();
  network.join();
  run.history = sink->values();
  run.producer_steps = producer->stats()->steps.load();
  run.consumer_steps = consumer->stats()->steps.load();
  return run;
}

TEST(PauseHandshake, PauseResumeCyclesKeepTheHistory) {
  sched::SchedulerOptions threads;
  threads.mode = sched::SchedMode::kThreadPerProcess;
  sched::SchedulerOptions one_worker;
  one_worker.mode = sched::SchedMode::kWorkSteal;
  one_worker.workers = 1;
  sched::SchedulerOptions four_workers = one_worker;
  four_workers.workers = 4;
  const PausedRun reference = run_paused(threads, 0);
  ASSERT_EQ(reference.history.size(),
            static_cast<std::size_t>(kPausedRunTokens));
  for (const auto& [label, options] :
       {std::pair{"thread-per-process", threads},
        std::pair{"M:N, 1 worker", one_worker},
        std::pair{"M:N, 4 workers", four_workers}}) {
    SCOPED_TRACE(label);
    const PausedRun run = run_paused(options, 200);
    EXPECT_GE(run.parked, 1);
    EXPECT_EQ(run.history, reference.history);
    EXPECT_EQ(run.producer_steps,
              static_cast<std::uint64_t>(kPausedRunTokens));
    EXPECT_EQ(run.consumer_steps,
              static_cast<std::uint64_t>(kPausedRunTokens));
  }
}

// A paused process gives its worker back: on one M:N worker another fiber
// runs while the process waits in pause_point for resume().
TEST(PauseHandshake, PausedFiberLeavesTheWorkerToOthers) {
  sched::SchedulerOptions one_worker;
  one_worker.mode = sched::SchedMode::kWorkSteal;
  one_worker.workers = 1;
  Network network;
  network.set_scheduler(one_worker);
  auto channel = network.make_channel({.capacity = 64, .label = "paused"});
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto producer = std::make_shared<Sequence>(0, channel->output(), 100);
  network.add(producer);
  network.add(std::make_shared<Collect>(channel->input(), sink));
  producer->request_pause();  // parks at its first boundary
  network.start();
  ASSERT_TRUE(producer->await_pause());
  std::atomic<bool> ran{false};
  network.scheduler()->spawn([&ran] { ran = true; }, "test.bystander");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds{5};
  while (!ran.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  EXPECT_TRUE(ran.load()) << "the paused process pinned the only worker";
  EXPECT_TRUE(producer->paused());
  producer->resume();  // unpins the worker either way, so the run ends
  network.join();
  EXPECT_TRUE(ran.load());
  EXPECT_EQ(sink->size(), 100u);
}

// --- CompositeProcess ---------------------------------------------------------

TEST(Composite, RunsMembersConcurrently) {
  // A pipeline where each member blocks on the other: only concurrent
  // execution can finish.
  auto a = std::make_shared<Channel>(4);
  auto b = std::make_shared<Channel>(4);
  auto sink = std::make_shared<CollectSink<std::int64_t>>();

  auto composite = std::make_shared<CompositeProcess>();
  composite->add(std::make_shared<Sequence>(0, a->output(), 100));
  composite->add(std::make_shared<Identity>(a->input(), b->output()));
  composite->add(std::make_shared<Collect>(b->input(), sink));
  composite->run();

  const auto values = sink->values();
  ASSERT_EQ(values.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(values[i], i);
}

TEST(Composite, FailurePropagatesAfterJoin) {
  auto composite = std::make_shared<CompositeProcess>();
  composite->add(std::make_shared<FailingProcess>());
  EXPECT_THROW(composite->run(), std::runtime_error);
}

TEST(Composite, AggregatesEndpoints) {
  auto a = std::make_shared<Channel>(4);
  auto b = std::make_shared<Channel>(4);
  auto composite = std::make_shared<CompositeProcess>();
  composite->add(std::make_shared<Identity>(a->input(), b->output()));
  EXPECT_EQ(composite->channel_inputs().size(), 1u);
  EXPECT_EQ(composite->channel_outputs().size(), 1u);
  EXPECT_THROW(composite->add(nullptr), UsageError);
}

// --- Network & termination -----------------------------------------------------

TEST(Network, PipelineTerminationByProducerLimit) {
  // Section 3.4 mode 2: the source stops; downstream drains everything.
  Network network;
  auto a = network.make_channel({.capacity = 8, .label = "a"});
  auto b = network.make_channel({.capacity = 8, .label = "b"});
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  network.add(std::make_shared<Sequence>(1, a->output(), 50));
  network.add(std::make_shared<Identity>(a->input(), b->output()));
  network.add(std::make_shared<Collect>(b->input(), sink));
  network.run();
  EXPECT_EQ(sink->size(), 50u);
  EXPECT_EQ(sink->values().back(), 50);
}

TEST(Network, PipelineTerminationByConsumerLimit) {
  // Section 3.4 mode 1: the sink stops first; upstream is killed by
  // ChannelClosed on its next write.
  Network network;
  auto a = network.make_channel({.capacity = 8, .label = "a"});
  auto b = network.make_channel({.capacity = 8, .label = "b"});
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  network.add(std::make_shared<Sequence>(1, a->output()));  // unbounded!
  network.add(std::make_shared<Identity>(a->input(), b->output()));
  network.add(std::make_shared<Collect>(b->input(), sink, 25));
  network.run();  // must terminate despite the unbounded source
  EXPECT_EQ(sink->size(), 25u);
  for (int i = 0; i < 25; ++i) EXPECT_EQ(sink->values()[i], i + 1);
}

TEST(Network, StartTwiceThrows) {
  Network network;
  network.add(std::make_shared<Recorder>(1));
  network.start();
  EXPECT_THROW(network.start(), UsageError);
  network.join();
}

TEST(Network, AddAfterStartThrows) {
  Network network;
  network.add(std::make_shared<Recorder>(1));
  network.start();
  EXPECT_THROW(network.add(std::make_shared<Recorder>(1)), UsageError);
  network.join();
}

TEST(Network, FigureThirteenDeadlocksWithoutMonitor) {
  // Figure 13: route 1 of every N to one input of a merge, N-1 to the
  // other; with a small channel the graph wedges.  Without the monitor we
  // only *detect* (via the monitor in detection-only mode) -- run with
  // abort to unwedge and confirm it was a write-blocked (artificial)
  // deadlock that growth can fix... here: confirm deadlock happens.
  constexpr std::int64_t kN = 10;
  Network network;
  auto source = network.make_channel({.capacity = 64, .label = "source"});
  auto multiples = network.make_channel({.capacity = 8, .label = "multiples"});
  auto others = network.make_channel({.capacity = 8, .label = "others"});  // too small for N-1=9
  auto merged = network.make_channel({.capacity = 64, .label = "merged"});
  auto sink = std::make_shared<CollectSink<std::int64_t>>();

  network.add(std::make_shared<Sequence>(1, source->output(), 200));
  network.add(std::make_shared<RouteByDivisibility>(
      source->input(), multiples->output(), others->output(), kN));
  network.add(std::make_shared<OrderedMerge>(
      std::vector{multiples->input(), others->input()}, merged->output(),
      /*eliminate_duplicates=*/false));
  network.add(std::make_shared<Collect>(merged->input(), sink));

  MonitorOptions options;
  options.growth_factor = 0;  // never grow: watch it declare deadlock
  options.max_channel_capacity = 0;
  options.abort_on_true_deadlock = true;
  network.enable_monitor(options);
  network.run();
  EXPECT_EQ(network.outcome(), DeadlockOutcome::kTrueDeadlock);
  EXPECT_LT(sink->size(), 200u);  // did not complete
}

TEST(Network, FigureThirteenCompletesWithMonitor) {
  // Same graph; the monitor grows the wedged channel (Parks' rule) and
  // the run completes with the full ordered output.
  constexpr std::int64_t kN = 10;
  Network network;
  auto source = network.make_channel({.capacity = 64, .label = "source"});
  auto multiples = network.make_channel({.capacity = 8, .label = "multiples"});
  auto others = network.make_channel({.capacity = 8, .label = "others"});
  auto merged = network.make_channel({.capacity = 64, .label = "merged"});
  auto sink = std::make_shared<CollectSink<std::int64_t>>();

  network.add(std::make_shared<Sequence>(1, source->output(), 200));
  network.add(std::make_shared<RouteByDivisibility>(
      source->input(), multiples->output(), others->output(), kN));
  network.add(std::make_shared<OrderedMerge>(
      std::vector{multiples->input(), others->input()}, merged->output(),
      /*eliminate_duplicates=*/false));
  network.add(std::make_shared<Collect>(merged->input(), sink));

  network.enable_monitor(MonitorOptions{});
  network.run();
  EXPECT_EQ(network.outcome(), DeadlockOutcome::kGrown);
  EXPECT_GE(network.growth_events(), 1u);
  const auto values = sink->values();
  ASSERT_EQ(values.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(values[i], i + 1);
}

TEST(Network, TrueDeadlockDetectedOnCycle) {
  // Two processes each waiting to read from the other: a real deadlock
  // that no buffer growth can fix.
  Network network;
  auto ab = network.make_channel({.capacity = 16, .label = "ab"});
  auto ba = network.make_channel({.capacity = 16, .label = "ba"});

  class Echo final : public IterativeProcess {
   public:
    Echo(std::shared_ptr<ChannelInputStream> in,
         std::shared_ptr<ChannelOutputStream> out) {
      track_input(std::move(in));
      track_output(std::move(out));
    }
    std::string type_name() const override { return "test.Echo"; }
    void write_fields(serial::ObjectOutputStream&) const override {}

   protected:
    void step() override {
      io::DataInputStream in{*input(0)};
      io::DataOutputStream out{*output(0)};
      out.write_i64(in.read_i64());  // reads first: both block forever
    }
  };

  network.add(std::make_shared<Echo>(ab->input(), ba->output()));
  network.add(std::make_shared<Echo>(ba->input(), ab->output()));
  network.enable_monitor(MonitorOptions{});
  network.run();
  EXPECT_EQ(network.outcome(), DeadlockOutcome::kTrueDeadlock);
}

TEST(Network, WokenReaderIsNotCountedBlocked) {
  // A woken reader that has not run yet is about to make progress, so the
  // monitor must not count it as blocked.  On one M:N worker a process
  // wakes its reader with one token, spawns a fiber that holds the worker
  // for 20 ms, and blocks reading the reply; meanwhile every process
  // "waits", but only one of them really does.
  class PingOnce final : public IterativeProcess {
   public:
    PingOnce(std::shared_ptr<ChannelInputStream> in,
             std::shared_ptr<ChannelOutputStream> out,
             std::function<void()> after_write)
        : IterativeProcess(1), after_write_(std::move(after_write)) {
      track_input(std::move(in));
      track_output(std::move(out));
    }
    std::string type_name() const override { return "test.PingOnce"; }
    void write_fields(serial::ObjectOutputStream&) const override {}
    std::atomic<std::int64_t> reply{0};

   protected:
    void step() override {
      io::DataOutputStream out{*output(0)};
      out.write_i64(42);
      after_write_();
      io::DataInputStream in{*input(0)};
      reply.store(in.read_i64());
    }

   private:
    std::function<void()> after_write_;
  };

  sched::SchedulerOptions one_worker;
  one_worker.mode = sched::SchedMode::kWorkSteal;
  one_worker.workers = 1;
  Network network;
  network.set_scheduler(one_worker);
  auto ping = network.make_channel({.capacity = 64, .label = "ping"});
  auto pong = network.make_channel({.capacity = 64, .label = "pong"});
  // Added first, so it runs first and parks on the empty ping channel.
  network.add(std::make_shared<Identity>(ping->input(), pong->output()));
  // The holder is spawned after the token woke the echo, so the worker's
  // LIFO deque runs it first; it is not one of the network's processes.
  auto pinger = std::make_shared<PingOnce>(
      pong->input(), ping->output(), [&network] {
        network.scheduler()->spawn(
            [] {
              const auto until = std::chrono::steady_clock::now() +
                                 std::chrono::milliseconds{20};
              while (std::chrono::steady_clock::now() < until) {
              }
            },
            "test.hold-worker");
      });
  network.add(pinger);
  network.enable_monitor(MonitorOptions{});
  network.run();
  EXPECT_EQ(network.outcome(), DeadlockOutcome::kNone);
  EXPECT_EQ(pinger->reply.load(), 42);
}

// --- Determinacy ---------------------------------------------------------------

TEST(Network, DeterminateAcrossCapacities) {
  // Kahn's theorem, operationally: the channel history must not depend on
  // buffer sizes or scheduling.  Run the same graph with many capacities
  // and compare histories.
  std::vector<std::int64_t> reference;
  for (const std::size_t capacity : {1u, 2u, 3u, 8u, 64u, 4096u}) {
    Network network;
    auto a = network.make_channel({.capacity = capacity});
    auto b = network.make_channel({.capacity = capacity});
    auto c = network.make_channel({.capacity = capacity});
    auto sink = std::make_shared<CollectSink<std::int64_t>>();
    network.add(std::make_shared<Sequence>(0, a->output(), 64));
    network.add(std::make_shared<Identity>(a->input(), b->output()));
    network.add(std::make_shared<Identity>(b->input(), c->output()));
    network.add(std::make_shared<Collect>(c->input(), sink));
    network.run();
    if (reference.empty()) {
      reference = sink->values();
    } else {
      EXPECT_EQ(sink->values(), reference) << "capacity " << capacity;
    }
  }
  EXPECT_EQ(reference.size(), 64u);
}

}  // namespace
}  // namespace dpn::core
