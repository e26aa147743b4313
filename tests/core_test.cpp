#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>

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
  io::DataOutputStream out{channel.output()};
  io::DataInputStream in{channel.input()};
  out.write_i64(12345);
  EXPECT_EQ(in.read_i64(), 12345);
}

TEST(Channel, ReaderBlocksOnEmpty) {
  Channel channel{16};
  std::jthread writer{[&] {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
    io::DataOutputStream out{channel.output()};
    out.write_i64(7);
  }};
  io::DataInputStream in{channel.input()};
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
  io::DataOutputStream out{channel.output()};
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
  io::DataInputStream in{channel.input()};
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
  io::DataInputStream in{channel->input()};
  for (int i = 0; i < 3; ++i) EXPECT_EQ(in.read_i64(), 1);
  EXPECT_THROW(in.read_i64(), EndOfStream);
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
      io::DataInputStream in{input(0)};
      io::DataOutputStream out{output(0)};
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
      io::DataOutputStream out{output(0)};
      out.write_i64(42);
      after_write_();
      io::DataInputStream in{input(0)};
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
