#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <latch>
#include <thread>
#include <utility>

#include "core/network.hpp"
#include "dist/ddm.hpp"
#include "dist/ship.hpp"
#include "io/data.hpp"
#include "net/mux.hpp"
#include "processes/arith.hpp"
#include "processes/basic.hpp"
#include "processes/copy.hpp"
#include "processes/merge.hpp"
#include "sched/scheduler.hpp"

/// Distributed deadlock management (paper Section 6.2, implemented): a
/// coordinator aggregates per-node stall state and applies Parks' rule
/// fleet-wide, or detects true distributed deadlock and aborts the fleet.
namespace dpn::dist {
namespace {

using core::Channel;
using core::DeadlockOutcome;
using core::MonitorOptions;
using core::Network;
using processes::Add;
using processes::Collect;
using processes::CollectSink;
using processes::Cons;
using processes::Constant;
using processes::Duplicate;
using processes::Identity;
using processes::Sequence;

TEST(Coordinator, AgentsConnectAndDetach) {
  DeadlockCoordinator coordinator;
  auto node = NodeContext::create();
  Network network;
  network.add(std::make_shared<Constant>(
      1, std::make_shared<Channel>(64)->output(), 1));
  {
    MonitorAgent agent{"solo", network, node, "127.0.0.1",
                       coordinator.port()};
    while (coordinator.agents_connected() < 1) std::this_thread::yield();
  }
  coordinator.stop();
  EXPECT_EQ(coordinator.outcome(), DeadlockOutcome::kNone);
}

TEST(Coordinator, HealthyFleetTriggersNothing) {
  // A flowing pipeline never satisfies the stability test.
  DeadlockCoordinator coordinator;
  auto node = NodeContext::create();
  Network network;
  auto ch = network.make_channel({.capacity = 64});
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  network.add(std::make_shared<Sequence>(0, ch->output(), 3000));
  network.add(std::make_shared<Collect>(ch->input(), sink));
  MonitorAgent agent{"healthy", network, node, "127.0.0.1",
                     coordinator.port()};
  network.run();
  agent.stop();
  coordinator.stop();
  EXPECT_EQ(sink->size(), 3000u);
  // A sampling race can very occasionally issue a (harmless) growth
  // command; what must never happen on a healthy fleet is a deadlock
  // verdict.
  EXPECT_NE(coordinator.outcome(), DeadlockOutcome::kTrueDeadlock);
}

// --- One rule: the local monitor is a fleet of one ---------------------------

/// Figure 13: route 1 of every 10 to one input of a merge, 9 to the other,
/// whose 8-byte channel is far too small -- an artificial deadlock that
/// growing "others" to 128 bytes resolves.
using Sink = std::shared_ptr<CollectSink<std::int64_t>>;

void build_figure_thirteen(Network& network, const Sink& sink) {
  auto source = network.make_channel({.capacity = 64, .label = "source"});
  auto multiples = network.make_channel({.capacity = 8, .label = "multiples"});
  auto others = network.make_channel({.capacity = 8, .label = "others"});
  auto merged = network.make_channel({.capacity = 64, .label = "merged"});
  network.add(std::make_shared<Sequence>(1, source->output(), 200));
  network.add(std::make_shared<processes::RouteByDivisibility>(
      source->input(), multiples->output(), others->output(), 10));
  network.add(std::make_shared<processes::OrderedMerge>(
      std::vector{multiples->input(), others->input()}, merged->output(),
      /*eliminate_duplicates=*/false));
  network.add(std::make_shared<Collect>(merged->input(), sink));
}

/// Two processes that each read the other's output first: a true deadlock.
void build_echo_cycle(Network& network) {
  class Echo final : public core::IterativeProcess {
   public:
    Echo(std::shared_ptr<core::ChannelInputStream> in,
         std::shared_ptr<core::ChannelOutputStream> out) {
      track_input(std::move(in));
      track_output(std::move(out));
    }
    std::string type_name() const override { return "test.Echo"; }
    void write_fields(serial::ObjectOutputStream&) const override {}

   protected:
    void step() override {
      io::DataInputStream in{*input(0)};
      io::DataOutputStream out{*output(0)};
      out.write_i64(in.read_i64());
    }
  };
  auto ab = network.make_channel({.capacity = 16, .label = "ab"});
  auto ba = network.make_channel({.capacity = 16, .label = "ba"});
  network.add(std::make_shared<Echo>(ab->input(), ba->output()));
  network.add(std::make_shared<Echo>(ba->input(), ab->output()));
}

struct Verdicts {
  core::DeadlockOutcome outcome = core::DeadlockOutcome::kNone;
  std::size_t growths = 0;
  std::size_t collected = 0;
};

/// Runs the graph `build` makes once under the local monitor and once
/// under a one-agent DeadlockCoordinator, with the same options.
std::pair<Verdicts, Verdicts> run_both(
    const std::function<void(Network&, const Sink&)>& build,
    const MonitorOptions& options) {
  Verdicts local;
  {
    auto sink = std::make_shared<CollectSink<std::int64_t>>();
    Network network;
    build(network, sink);
    network.enable_monitor(options);
    network.run();
    local = {network.outcome(), network.growth_events(), sink->size()};
  }
  Verdicts fleet;
  {
    auto sink = std::make_shared<CollectSink<std::int64_t>>();
    DeadlockCoordinator coordinator{options};
    auto node = NodeContext::create();
    Network network;
    build(network, sink);
    MonitorAgent agent{"solo", network, node, "127.0.0.1", coordinator.port()};
    network.run();
    agent.stop();
    coordinator.stop();
    fleet = {coordinator.outcome(), coordinator.growth_commands(),
             sink->size()};
    EXPECT_EQ(network.growth_events(), fleet.growths);
  }
  return {local, fleet};
}

TEST(OneRule, ArtificialStallGrowsAlikeLocallyAndFleetWide) {
  const auto [local, fleet] = run_both(build_figure_thirteen, {});
  EXPECT_EQ(local.outcome, DeadlockOutcome::kGrown);
  EXPECT_EQ(local.collected, 200u);
  EXPECT_EQ(fleet.outcome, local.outcome);
  EXPECT_EQ(fleet.growths, local.growths);
  EXPECT_EQ(fleet.collected, local.collected);
}

TEST(OneRule, TrueDeadlockIsDeclaredAlikeLocallyAndFleetWide) {
  const auto [local, fleet] = run_both(
      [](Network& network, const Sink&) { build_echo_cycle(network); }, {});
  EXPECT_EQ(local.outcome, DeadlockOutcome::kTrueDeadlock);
  EXPECT_EQ(local.growths, 0u);
  EXPECT_EQ(fleet.outcome, local.outcome);
  EXPECT_EQ(fleet.growths, local.growths);
}

TEST(OneRule, CapacityCapHoldsLocallyAndFleetWide) {
  // "others" may grow 8 -> 16 -> 32 bytes, but Figure 13 needs 72: the
  // growth to 64 passes the cap, which turns the stall into a verdict.
  const auto [local, fleet] =
      run_both(build_figure_thirteen, {.max_channel_capacity = 32});
  EXPECT_EQ(local.outcome, DeadlockOutcome::kTrueDeadlock);
  EXPECT_EQ(local.growths, 2u);
  EXPECT_LT(local.collected, 200u);
  EXPECT_EQ(fleet.outcome, local.outcome);
  EXPECT_EQ(fleet.growths, local.growths);
  EXPECT_EQ(fleet.collected, local.collected);
}

TEST(Coordinator, ResolvesDistributedArtificialDeadlock) {
  // Figure 13, cut across two machines: the route runs on node A, the
  // ordered merge on node B, and the channels between them are *bounded*
  // remote channels with tiny flow-control windows.  The route wedges
  // writing the crowded stream (window exhausted) while the merge waits
  // for the sparse one -- an artificial deadlock no single node can see.
  // The coordinator detects the fleet-wide stall and grows the remote
  // windows until the run completes.
  DeadlockCoordinator coordinator;

  auto node_a = NodeContext::create();
  auto node_b = NodeContext::create();
  node_a->set_remote_window(32);  // 4 elements: far less than the N-1=9
  node_b->set_remote_window(32);  // needed by the Figure 13 imbalance

  constexpr std::int64_t kN = 10;
  constexpr long kTotal = 200;
  auto source = std::make_shared<Channel>(4096, "source");
  auto multiples = std::make_shared<Channel>(4096, "multiples");
  auto others = std::make_shared<Channel>(4096, "others");
  auto merged = std::make_shared<Channel>(4096, "merged");
  auto sink = std::make_shared<CollectSink<std::int64_t>>();

  // The merge moves to node B; multiples/others cross A->B and merged
  // crosses B->A back to the collector.
  auto moving = std::make_shared<processes::OrderedMerge>(
      std::vector{multiples->input(), others->input()}, merged->output(),
      /*eliminate_duplicates=*/false);
  const ByteVector shipment = ship_process(node_a, moving);

  Network network_a;
  network_a.watch(source);
  network_a.add(std::make_shared<Sequence>(1, source->output(), kTotal));
  network_a.add(std::make_shared<processes::RouteByDivisibility>(
      source->input(), multiples->output(), others->output(), kN));
  network_a.add(std::make_shared<Collect>(merged->input(), sink));

  Network network_b;
  network_b.add(receive_process(node_b, {shipment.data(), shipment.size()}));

  MonitorAgent agent_a{"node-a", network_a, node_a, "127.0.0.1",
                       coordinator.port()};
  MonitorAgent agent_b{"node-b", network_b, node_b, "127.0.0.1",
                       coordinator.port()};

  network_a.start();
  network_b.start();
  network_a.join();
  network_b.join();
  agent_a.stop();
  agent_b.stop();
  coordinator.stop();

  ASSERT_EQ(sink->size(), static_cast<std::size_t>(kTotal));
  const auto values = sink->values();
  for (long i = 0; i < kTotal; ++i) EXPECT_EQ(values[i], i + 1);
  EXPECT_EQ(coordinator.outcome(), DeadlockOutcome::kGrown);
  EXPECT_GE(coordinator.growth_commands(), 1u);
}

TEST(Coordinator, DetectsTrueDistributedDeadlock) {
  // Two nodes, each hosting an Echo that first reads from the other: both
  // block on remote reads with nothing in flight.  No local monitor can
  // tell this apart from waiting on a busy peer; the coordinator can, and
  // aborts the fleet instead of letting it hang.
  namespace fs = std::filesystem;
  const fs::path dump_dir =
      fs::temp_directory_path() /
      ("dpn-ddm-test-" + std::to_string(static_cast<long>(::getpid())));
  fs::create_directories(dump_dir);
  ::setenv("DPN_FLIGHT_DIR", dump_dir.c_str(), 1);

  DeadlockCoordinator coordinator;

  auto node_a = NodeContext::create();
  auto node_b = NodeContext::create();

  auto ab = std::make_shared<Channel>(64, "ab");
  auto ba = std::make_shared<Channel>(64, "ba");

  // Echo at B: reads ab, writes ba.  Ship both endpoints it holds.
  auto echo_b = std::make_shared<Identity>(ab->input(), ba->output());
  const ByteVector shipment = ship_process(node_a, echo_b);

  Network network_a;
  // Echo at A: reads ba, writes ab -- but reads first, so nobody ever
  // writes and the fleet deadlocks for real.
  class ReadFirstEcho final : public core::IterativeProcess {
   public:
    ReadFirstEcho(std::shared_ptr<core::ChannelInputStream> in,
                  std::shared_ptr<core::ChannelOutputStream> out) {
      track_input(std::move(in));
      track_output(std::move(out));
    }
    std::string type_name() const override { return "test.ReadFirstEcho"; }
    void write_fields(serial::ObjectOutputStream&) const override {
      throw SerializationError{"local-only"};
    }

   protected:
    void step() override {
      io::DataInputStream in{*input(0)};
      io::DataOutputStream out{*output(0)};
      out.write_i64(in.read_i64());
    }
  };
  network_a.add(std::make_shared<ReadFirstEcho>(ba->input(), ab->output()));

  Network network_b;
  network_b.add(receive_process(node_b, {shipment.data(), shipment.size()}));

  MonitorAgent agent_a{"node-a", network_a, node_a, "127.0.0.1",
                       coordinator.port()};
  MonitorAgent agent_b{"node-b", network_b, node_b, "127.0.0.1",
                       coordinator.port()};

  network_a.start();
  network_b.start();
  network_a.join();  // returns because the coordinator aborts the fleet
  network_b.join();
  agent_a.stop();
  agent_b.stop();
  coordinator.stop();

  EXPECT_EQ(coordinator.outcome(), DeadlockOutcome::kTrueDeadlock);

  // The verdict also produced a post-mortem with no flags set: the
  // coordinator's fleet-deadlock flight dump (in-process fleets share
  // the ring registry, so it holds every agent's recent events).  The
  // wedged reads here block inside shipped remote-stream stubs, not
  // local pipes, so the timeline shows the fleet's topology binds, the
  // ship/dial edges and the abort verdict rather than pipe block edges
  // (the local-monitor dump in flight_test names the exact cycle).
  const fs::path dump =
      dump_dir / ("dpn-flight-fleet-deadlock-" +
                  std::to_string(static_cast<long>(::getpid())) + ".txt");
  ASSERT_TRUE(fs::exists(dump)) << dump;
  std::ifstream in{dump};
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  EXPECT_NE(text.find("=== dpn flight recorder dump"), std::string::npos);
  EXPECT_NE(text.find("wait-for:"), std::string::npos);
  EXPECT_NE(text.find("chan.reader"), std::string::npos) << text;
  EXPECT_NE(text.find("dist.ship"), std::string::npos) << text;
  EXPECT_NE(text.find("ddm.abort"), std::string::npos) << text;

  ::unsetenv("DPN_FLIGHT_DIR");
  std::error_code ignored;
  fs::remove_all(dump_dir, ignored);
}

TEST(Coordinator, BytesInFlightHoldBackTheDeadlockVerdict) {
  // Node A's process writes one token to node B's echo and then waits for
  // the reply.  For a while every process counts as blocked: A's waits on
  // the reply, and B's echo still counts as parked on its empty input
  // after the token has arrived, because a fiber holds B's only worker
  // and delays its wakeup.  The fleet is live, and only the byte counters
  // can tell: A's sent count must include the token although A's
  // producer never parked, so no poll finds sent == received until the
  // echo has run.
  DeadlockCoordinator coordinator{
      MonitorOptions{.poll_interval = std::chrono::milliseconds{25}}};

  auto node_a = NodeContext::create();
  auto node_b = NodeContext::create();
  auto ab = std::make_shared<Channel>(64, "ab");
  auto ba = std::make_shared<Channel>(64, "ba");
  const ByteVector shipment = ship_process(
      node_a, std::make_shared<Identity>(ab->input(), ba->output()));

  class PingOnce final : public core::IterativeProcess {
   public:
    PingOnce(std::shared_ptr<core::ChannelInputStream> in,
             std::shared_ptr<core::ChannelOutputStream> out)
        : IterativeProcess(1) {
      track_input(std::move(in));
      track_output(std::move(out));
    }
    std::string type_name() const override { return "test.PingOnce"; }
    void write_fields(serial::ObjectOutputStream&) const override {
      throw SerializationError{"local-only"};
    }
    std::atomic<std::int64_t> reply{0};

   protected:
    void step() override {
      io::DataOutputStream out{*output(0)};
      out.write_i64(42);
      io::DataInputStream in{*input(0)};
      reply.store(in.read_i64());
    }
  };
  auto ping = std::make_shared<PingOnce>(ba->input(), ab->output());

  Network network_b;
  sched::SchedulerOptions one_worker;
  one_worker.mode = sched::SchedMode::kWorkSteal;
  one_worker.workers = 1;
  network_b.set_scheduler(one_worker);
  network_b.add(receive_process(node_b, {shipment.data(), shipment.size()}));
  network_b.start();
  while (node_b->traffic()->blocked_remote_readers.load() == 0) {
    std::this_thread::yield();  // the echo parks on its empty input
  }
  std::latch holding{1};
  network_b.scheduler()->spawn(
      [&holding] {
        holding.count_down();
        std::this_thread::sleep_for(std::chrono::milliseconds{120});
      },
      "test.hold-worker");
  holding.wait();

  Network network_a;
  network_a.add(ping);
  network_a.start();
  while (node_a->traffic()->blocked_remote_readers.load() == 0) {
    std::this_thread::yield();  // the token is written; A awaits the echo
  }
  EXPECT_EQ(node_a->traffic()->bytes_sent.load(), 8u);

  // Polls start now, several of them while B's worker is held: two would
  // do for a verdict, the 8-poll fallback would take far longer.
  MonitorAgent agent_a{"node-a", network_a, node_a, "127.0.0.1",
                       coordinator.port()};
  MonitorAgent agent_b{"node-b", network_b, node_b, "127.0.0.1",
                       coordinator.port()};
  network_a.join();
  network_b.join();
  agent_a.stop();
  agent_b.stop();
  coordinator.stop();

  EXPECT_NE(coordinator.outcome(), DeadlockOutcome::kTrueDeadlock);
  EXPECT_EQ(ping->reply.load(), 42);
  EXPECT_EQ(node_a->traffic()->bytes_sent.load(),
            node_b->traffic()->bytes_received.load());
  EXPECT_EQ(node_b->traffic()->bytes_sent.load(),
            node_a->traffic()->bytes_received.load());
}

TEST(Coordinator, StreamEndInFlightHoldsBackTheDeadlockVerdict) {
  // Node A closes its stream to node B's echo without writing a byte and
  // waits for the echo's output to end.  The FIN reaches B while a fiber
  // holds B's only worker, so the woken echo still counts as parked on
  // its input, and no byte is unbalanced.  Only the end itself is in
  // flight: it must hold the verdict back like a byte would.
  DeadlockCoordinator coordinator{
      MonitorOptions{.poll_interval = std::chrono::milliseconds{25}}};

  auto node_a = NodeContext::create();
  auto node_b = NodeContext::create();
  auto ab = std::make_shared<Channel>(64, "ab");
  auto ba = std::make_shared<Channel>(64, "ba");
  const ByteVector shipment = ship_process(
      node_a, std::make_shared<Identity>(ab->input(), ba->output()));

  class CloseAtOnce final : public core::Process {
   public:
    explicit CloseAtOnce(std::shared_ptr<core::ChannelOutputStream> out)
        : out_(std::move(out)) {}
    void run() override { out_->close(); }
    std::string type_name() const override { return "test.CloseAtOnce"; }
    void write_fields(serial::ObjectOutputStream&) const override {
      throw SerializationError{"local-only"};
    }

   private:
    std::shared_ptr<core::ChannelOutputStream> out_;
  };

  Network network_b;
  sched::SchedulerOptions one_worker;
  one_worker.mode = sched::SchedMode::kWorkSteal;
  one_worker.workers = 1;
  network_b.set_scheduler(one_worker);
  network_b.add(receive_process(node_b, {shipment.data(), shipment.size()}));
  network_b.start();
  while (node_b->traffic()->blocked_remote_readers.load() == 0) {
    std::this_thread::yield();  // the echo parks on its empty input
  }
  std::latch holding{1};
  network_b.scheduler()->spawn(
      [&holding] {
        holding.count_down();
        std::this_thread::sleep_for(std::chrono::milliseconds{120});
      },
      "test.hold-worker");
  holding.wait();

  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  Network network_a;
  network_a.add(std::make_shared<CloseAtOnce>(ab->output()));
  network_a.add(std::make_shared<Collect>(ba->input(), sink));
  network_a.start();
  while (network_a.live_processes() > 1 ||
         node_a->traffic()->blocked_remote_readers.load() == 0) {
    std::this_thread::yield();  // FIN sent; A's collector awaits B's end
  }

  MonitorAgent agent_a{"node-a", network_a, node_a, "127.0.0.1",
                       coordinator.port()};
  MonitorAgent agent_b{"node-b", network_b, node_b, "127.0.0.1",
                       coordinator.port()};
  network_a.join();
  network_b.join();
  agent_a.stop();
  agent_b.stop();
  coordinator.stop();

  EXPECT_EQ(coordinator.outcome(), DeadlockOutcome::kNone);
  EXPECT_EQ(sink->size(), 0u);
}

// --- The remote grow is a window grant --------------------------------------

/// Waits (up to 10 s) until `traffic` shows a parked writer with at least
/// `bytes` sent, then gives it 50 ms more; returns what it has sent by
/// then.
std::uint64_t parked_after(const TrafficStats& traffic, std::uint64_t bytes) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds{10};
  while ((traffic.bytes_sent.load() < bytes ||
          traffic.blocked_remote_writers.load() == 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  std::this_thread::sleep_for(std::chrono::milliseconds{50});
  return traffic.bytes_sent.load();
}

class RemoteGrow : public ::testing::TestWithParam<bool> {};

// What the coordinator's remote grow runs on a node (grant_remote_credits)
// lets a producer parked on its channel's window go exactly one bonus
// further, and leaves the stream whole: the consumer then reads the
// history in order, well past the grant, with no connection lost.
TEST_P(RemoteGrow, BonusUnblocksAWindowStalledProducer) {
  constexpr std::size_t kWindow = 4096;
  constexpr std::size_t kBonus = 1024;
  auto node_a = NodeContext::create();  // the consumer's
  auto node_b = NodeContext::create();  // the producer's
  auto ch = std::make_shared<Channel>(
      core::ChannelOptions{.capacity = 256,
                           .label = "grown",
                           .remote = {.credit_window = kWindow}});
  std::shared_ptr<core::Process> producer =
      std::make_shared<Sequence>(0, ch->output());
  const ByteVector shipment = ship_process(node_a, producer);
  producer = receive_process(node_b, {shipment.data(), shipment.size()});
  Network producers;
  if (GetParam()) {
    producers.set_scheduler(sched::SchedulerOptions{
        .mode = sched::SchedMode::kWorkSteal, .workers = 2});
  }
  producers.add(producer);
  producers.start();

  io::DataInputStream in{*ch->input()};
  std::int64_t next = 0;
  ASSERT_EQ(in.read_i64(), next++);  // the consumer's segment is live
  const TrafficStats& traffic = *node_b->traffic();
  // One token read is far below the half window a grant waits for.
  EXPECT_EQ(parked_after(traffic, kWindow), kWindow);
  const std::uint64_t connections_before = net::mux_stats().connections;

  node_a->set_remote_window(kBonus);
  node_a->grant_remote_credits();
  EXPECT_EQ(parked_after(traffic, kWindow + kBonus), kWindow + kBonus);
  EXPECT_EQ(net::mux_stats().connections, connections_before);

  for (; next < 20000; ++next) ASSERT_EQ(in.read_i64(), next);
  ch->input()->close();
  producers.join();
}

INSTANTIATE_TEST_SUITE_P(Callers, RemoteGrow, ::testing::Bool(),
                         [](const auto& instance) {
                           return instance.param ? "fibers" : "threads";
                         });

}  // namespace
}  // namespace dpn::dist
