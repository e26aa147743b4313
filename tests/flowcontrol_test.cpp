#include <gtest/gtest.h>

#include <future>
#include <thread>

#include "core/channel.hpp"
#include "core/network.hpp"
#include "dist/node.hpp"
#include "dist/ship.hpp"
#include "io/data.hpp"
#include "net/mux.hpp"
#include "sched/scheduler.hpp"
#include "support/rng.hpp"
#include "processes/basic.hpp"
#include "processes/copy.hpp"

/// Credit-based flow control on remote channels: Section 3.5's bounded
/// buffers, across machines.  A remote producer gets a finite byte window
/// and blocks when it is exhausted; the consumer returns window as it
/// consumes; the deadlock machinery can grant bonus window.
namespace dpn::dist {
namespace {

using core::Channel;
using processes::Collect;
using processes::CollectSink;
using processes::Identity;
using processes::Sequence;

/// Ships ch's consumer (an Identity into a local out-channel) to node_b
/// and returns the remote process; the producer endpoint stays local.
struct CutChannel {
  std::shared_ptr<Channel> in;
  std::shared_ptr<Channel> out;
  std::shared_ptr<core::Process> remote;
};

CutChannel make_cut(const std::shared_ptr<NodeContext>& node_a,
                    const std::shared_ptr<NodeContext>& node_b,
                    std::size_t out_capacity = 1 << 16) {
  CutChannel cut;
  cut.in = std::make_shared<Channel>(1 << 16, "cut.in");
  cut.out = std::make_shared<Channel>(out_capacity, "cut.out");
  auto mover = std::make_shared<Identity>(cut.in->input(),
                                          cut.out->output());
  const ByteVector shipment = ship_process(node_a, mover);
  cut.remote = receive_process(node_b, {shipment.data(), shipment.size()});
  return cut;
}

TEST(FlowControl, WriterBlocksOnExhaustedWindow) {
  auto node_a = NodeContext::create();
  auto node_b = NodeContext::create();
  node_a->set_remote_window(64);    // producer A->B: 8 elements
  node_b->set_remote_window(1024);  // Identity B->A: 128 elements

  // Both hops of the cut are remote; nobody reads cut.out, so the
  // Identity wedges once its B->A window is spent, stops consuming, and
  // the producer's credits dry up a window later.
  CutChannel cut = make_cut(node_a, node_b);
  std::jthread host{[&] { cut.remote->run(); }};

  std::atomic<long> written{0};
  std::jthread producer{[&] {
    io::DataOutputStream out{*cut.in->output()};
    try {
      for (long i = 0; i < 100000; ++i) {
        out.write_i64(i);
        written.fetch_add(1);
      }
    } catch (const IoError&) {
    }
  }};
  std::this_thread::sleep_for(std::chrono::milliseconds{50});
  const long after_stall = written.load();
  EXPECT_LT(after_stall, 100000);  // did not run away
  std::this_thread::sleep_for(std::chrono::milliseconds{20});
  EXPECT_EQ(written.load(), after_stall);  // genuinely wedged
  EXPECT_GT(node_a->traffic()->blocked_remote_writers.load(), 0);

  // Unblock for teardown: drain the far side.
  std::jthread drain{[&] {
    io::DataInputStream in{*cut.out->input()};
    try {
      for (;;) (void)in.read_i64();
    } catch (const IoError&) {
    }
  }};
  std::this_thread::sleep_for(std::chrono::milliseconds{30});
  cut.in->output()->close();
  cut.out->input()->close();
}

TEST(FlowControl, ConsumptionReturnsWindow) {
  // With an active consumer the stream flows to completion even though
  // the total volume is many times the window.
  auto node_a = NodeContext::create();
  auto node_b = NodeContext::create();
  node_a->set_remote_window(64);

  CutChannel cut = make_cut(node_a, node_b);
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto source = std::make_shared<Sequence>(0, cut.in->output(), 5000);
  auto drain = std::make_shared<Collect>(cut.out->input(), sink);

  std::jthread host{[&] { cut.remote->run(); }};
  std::jthread src{[&] { source->run(); }};
  drain->run();

  ASSERT_EQ(sink->size(), 5000u);  // 40 KB through a 64-byte window
  for (int i = 0; i < 5000; ++i) EXPECT_EQ(sink->values()[i], i);
}

TEST(FlowControl, SingleByteWindowStillCorrect) {
  // Pathological window: every element needs several credit round trips;
  // the byte stream must still arrive exactly.
  auto node_a = NodeContext::create();
  auto node_b = NodeContext::create();
  node_a->set_remote_window(1);

  CutChannel cut = make_cut(node_a, node_b);
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto source = std::make_shared<Sequence>(100, cut.in->output(), 64);
  auto drain = std::make_shared<Collect>(cut.out->input(), sink);

  std::jthread host{[&] { cut.remote->run(); }};
  std::jthread src{[&] { source->run(); }};
  drain->run();

  ASSERT_EQ(sink->size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(sink->values()[i], 100 + i);
}

TEST(FlowControl, BonusCreditsUnblockWriter) {
  // The coordinator's remote-grow: a fleet-wide stall (producer and the
  // forwarding Identity both out of window, nobody consuming) is released
  // purely by broadcasting bonus credits -- the distributed equivalent of
  // growing full channels.
  auto node_a = NodeContext::create();
  auto node_b = NodeContext::create();
  node_a->set_remote_window(16);  // producer A->B: 2 elements
  node_b->set_remote_window(16);  // Identity B->A: 2 elements; bonus size

  CutChannel cut = make_cut(node_a, node_b);
  std::jthread host{[&] { cut.remote->run(); }};

  std::atomic<long> written{0};
  std::jthread producer{[&] {
    io::DataOutputStream out{*cut.in->output()};
    try {
      for (long i = 0; i < 8; ++i) {
        out.write_i64(i);
        written.fetch_add(1);
      }
    } catch (const IoError&) {
    }
  }};
  std::this_thread::sleep_for(std::chrono::milliseconds{30});
  const long stalled_at = written.load();
  EXPECT_LT(stalled_at, 8);
  std::this_thread::sleep_for(std::chrono::milliseconds{10});
  EXPECT_EQ(written.load(), stalled_at);  // wedged until credits arrive

  // Broadcast grants (what the coordinator's kGrowRemote does) until the
  // stream is through.
  for (int round = 0; round < 50 && written.load() < 8; ++round) {
    node_a->grant_remote_credits();
    node_b->grant_remote_credits();
    std::this_thread::sleep_for(std::chrono::milliseconds{2});
  }
  producer.join();
  EXPECT_EQ(written.load(), 8);

  cut.in->output()->close();
  io::DataInputStream in{*cut.out->input()};
  for (long i = 0; i < 8; ++i) EXPECT_EQ(in.read_i64(), i);
}

TEST(FlowControl, ProducerShipsWhileConsumerStays) {
  // The *producer* endpoint ships away while its consumer stays and bytes
  // it wrote still sit in the pipe: the consumer drains them, then the
  // shipped producer's bytes over the socket, in order.
  auto node_a = NodeContext::create();
  auto node_b = NodeContext::create();

  auto in = std::make_shared<Channel>(std::size_t{1} << 16, "cut.in");
  auto out = std::make_shared<Channel>(std::size_t{1} << 16, "cut.out");

  io::DataOutputStream direct{*out->output()};
  for (long i = 1000; i < 1005; ++i) direct.write_i64(i);
  EXPECT_EQ(out->pipe()->size(), 40u);  // write-through: all in the pipe

  auto mover = std::make_shared<Identity>(in->input(), out->output());
  const ByteVector shipment = ship_process(node_a, mover);
  auto remote = receive_process(node_b, {shipment.data(), shipment.size()});
  EXPECT_EQ(out->pipe()->size(), 40u);  // the cut left them for the reader
  EXPECT_TRUE(out->pipe()->write_closed());
  std::jthread host{[&] { remote->run(); }};

  std::jthread feeder{[&] {
    io::DataOutputStream feed{*in->output()};
    for (long i = 1005; i < 1010; ++i) feed.write_i64(i);
    in->output()->close();
  }};

  io::DataInputStream consume{*out->input()};
  for (long i = 1000; i < 1010; ++i) ASSERT_EQ(consume.read_i64(), i);
}

TEST(FlowControl, LargeSingleWriteChunksThroughWindow) {
  // One write far larger than the window must be split into window-sized
  // chunks and arrive byte-exact.
  auto node_a = NodeContext::create();
  auto node_b = NodeContext::create();
  node_a->set_remote_window(100);

  CutChannel cut = make_cut(node_a, node_b);
  std::jthread host{[&] { cut.remote->run(); }};

  dpn::Xoshiro256 rng{1234};
  ByteVector blob(10000);
  for (auto& b : blob) b = static_cast<std::uint8_t>(rng.next());

  std::jthread producer{[&] {
    io::DataOutputStream out{*cut.in->output()};
    out.write_bytes({blob.data(), blob.size()});
    cut.in->output()->close();
  }};

  io::DataInputStream in{*cut.out->input()};
  const ByteVector received = in.read_bytes();
  EXPECT_EQ(received, blob);
}

TEST(FlowControl, DefaultWindowInvisibleToNormalGraphs) {
  // Sanity: with the default window, a multi-megabyte transfer flows at
  // full speed with no interventions.
  auto node_a = NodeContext::create();
  auto node_b = NodeContext::create();

  CutChannel cut = make_cut(node_a, node_b);
  std::jthread host{[&] { cut.remote->run(); }};

  constexpr std::size_t kChunk = 64 * 1024;
  constexpr int kChunks = 32;  // 2 MiB total
  std::jthread producer{[&] {
    io::DataOutputStream out{*cut.in->output()};
    ByteVector chunk(kChunk, 0x5a);
    for (int i = 0; i < kChunks; ++i) {
      out.write_bytes({chunk.data(), chunk.size()});
    }
    cut.in->output()->close();
  }};

  io::DataInputStream in{*cut.out->input()};
  std::size_t total = 0;
  for (int i = 0; i < kChunks; ++i) total += in.read_bytes().size();
  EXPECT_EQ(total, kChunk * kChunks);
}

/// Polls `done` until it holds or 10 s pass; returns its last value.
template <class Pred>
bool wait_until(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds{10};
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  return true;
}

// Blocked writers are counted where the wait happens: a producer whose
// consumer stopped reading parks on the stream's window, and that park
// makes it a blocked writer.
TEST(FlowControl, MuxWindowStallCountsAsBlockedWriter) {
  auto node_a = NodeContext::create();
  auto node_b = NodeContext::create();
  node_a->set_remote_window(4096);  // producer A->B: 512 elements
  node_b->set_remote_window(64);    // the Identity's B->A: wedges at once

  CutChannel cut = make_cut(node_a, node_b);
  std::jthread host{[&] { cut.remote->run(); }};
  const std::uint64_t stalls_before = net::mux_stats().credit_stalls;

  std::atomic<long> written{0};
  std::jthread producer{[&] {
    io::DataOutputStream out{*cut.in->output()};
    try {
      for (long i = 0; i < (1L << 22); ++i) {
        out.write_i64(i);
        written.fetch_add(1);
      }
    } catch (const IoError&) {
    }
  }};
  const TrafficStats& traffic_a = *node_a->traffic();
  // Wedged: parked, and no longer advancing.
  ASSERT_TRUE(wait_until([&] {
    const long before = written.load();
    if (traffic_a.blocked_remote_writers.load() == 0) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds{20});
    return written.load() == before &&
           traffic_a.blocked_remote_writers.load() > 0;
  }));
  EXPECT_GT(net::mux_stats().credit_stalls, stalls_before);
  // A window ahead of the Identity, which wedged a few elements in.
  EXPECT_LE(static_cast<std::size_t>(written.load()) * 8,
            node_a->remote_window() + 1024);
  // Published before the park: everything the producer wrote so far.
  EXPECT_EQ(traffic_a.bytes_sent.load(),
            static_cast<std::uint64_t>(written.load()) * 8);

  // Unblock by closing the far consumer: the cascade resets both remote
  // hops, the parked writers wake and fail, and every count drops to 0.
  cut.out->input()->close();
  producer.join();
  host.join();
  for (const auto& node : {node_a, node_b}) {
    const TrafficStats& traffic = *node->traffic();
    EXPECT_TRUE(wait_until([&] {
      return traffic.blocked_remote_writers.load() == 0 &&
             traffic.blocked_remote_readers.load() == 0;
    }));
  }
}

// Blocked readers likewise: a consumer parked on an empty remote stream
// counts, and the node's byte totals already hold everything it read.
// Once both ends of every hop are closed the fleet's byte counters
// balance exactly.
TEST(FlowControl, ParkedReadersCountedAndTrafficBalancesWhenClosed) {
  auto node_a = NodeContext::create();
  auto node_b = NodeContext::create();
  CutChannel cut = make_cut(node_a, node_b);
  std::jthread host{[&] { cut.remote->run(); }};

  io::DataOutputStream producer{*cut.in->output()};
  io::DataInputStream drain{*cut.out->input()};
  for (long i = 0; i < 10; ++i) producer.write_i64(i);
  for (long i = 0; i < 10; ++i) EXPECT_EQ(drain.read_i64(), i);

  // Both consumers now wait on empty streams: B's Identity on A->B and
  // this reader on B->A.
  std::vector<std::int64_t> rest;
  std::jthread reader{[&] {
    io::DataInputStream in{*cut.out->input()};
    try {
      for (;;) rest.push_back(in.read_i64());
    } catch (const EndOfStream&) {
    }
  }};
  const TrafficStats& traffic_a = *node_a->traffic();
  const TrafficStats& traffic_b = *node_b->traffic();
  ASSERT_TRUE(wait_until([&] {
    return traffic_a.blocked_remote_readers.load() > 0 &&
           traffic_b.blocked_remote_readers.load() > 0;
  }));
  EXPECT_EQ(traffic_a.bytes_received.load(), 80u);
  EXPECT_EQ(traffic_b.bytes_received.load(), 80u);
  EXPECT_EQ(traffic_a.blocked_remote_writers.load(), 0);
  EXPECT_EQ(traffic_b.blocked_remote_writers.load(), 0);

  for (long i = 10; i < 20; ++i) producer.write_i64(i);
  cut.in->output()->close();
  reader.join();
  host.join();
  ASSERT_EQ(rest.size(), 10u);
  for (const TrafficStats* traffic : {&traffic_a, &traffic_b}) {
    EXPECT_EQ(traffic->blocked_remote_readers.load(), 0);
    EXPECT_EQ(traffic->blocked_remote_writers.load(), 0);
    EXPECT_EQ(traffic->bytes_sent.load(), 160u);
    EXPECT_EQ(traffic->bytes_received.load(), 160u);
  }
}

// A consumer that blocks downstream while its producer is ahead holds
// back the credit for what it has read, but never as much as half the
// window: the producer still gets credit, and the graph completes with
// no deadlock coordinator to grant bonus window.
TEST(FlowControl, ConsumerBlockedDownstreamStillReturnsWindow) {
  auto node_a = NodeContext::create();
  auto node_b = NodeContext::create();
  node_a->set_remote_window(64);  // producer A->B: 8 elements
  node_b->set_remote_window(24);  // Identity B->A: 3 elements
  CutChannel cut = make_cut(node_a, node_b);

  // One thread writes all elements before it reads any back, so the
  // Identity blocks writing B->A until the producer is done.
  constexpr long kCount = 10;
  std::vector<std::int64_t> echoed;
  auto round_trip = std::async(std::launch::async, [&] {
    io::DataOutputStream out{*cut.in->output()};
    for (long i = 0; i < kCount; ++i) out.write_i64(i);
    io::DataInputStream in{*cut.out->input()};
    for (long i = 0; i < kCount; ++i) echoed.push_back(in.read_i64());
    cut.in->output()->close();
  });
  // The producer spends its window before the Identity starts, so the
  // Identity finds a full window's worth to read.
  ASSERT_TRUE(wait_until([&] {
    return node_a->traffic()->blocked_remote_writers.load() > 0;
  }));
  std::jthread host{[&] {
    try {
      cut.remote->run();
    } catch (const std::exception&) {
    }
  }};
  const bool finished = round_trip.wait_for(std::chrono::seconds{10}) ==
                        std::future_status::ready;
  if (!finished) {  // wake everyone for teardown
    node_a->abort_remote_channels();
    node_b->abort_remote_channels();
  }
  try {
    round_trip.get();
  } catch (const std::exception&) {
  }
  ASSERT_TRUE(finished) << "the producer never got its credit back";
  ASSERT_EQ(echoed.size(), static_cast<std::size_t>(kCount));
  for (long i = 0; i < kCount; ++i) EXPECT_EQ(echoed[i], i);
}

// --- The stream window is the channel's bound ------------------------------
//
// A remote channel is bounded by the window of the stream that carries it
// and by nothing else, whichever side moved (so whichever side dialed)
// and whether the producer runs on a thread or a fiber.

struct WindowCase {
  bool producer_moves;  // else the consumer moves
  bool on_fibers;
};

/// A remote channel of window kWindow whose consumer never reads, and a
/// Sequence producer running until it parks on the window.
class StalledChannel {
 public:
  static constexpr std::size_t kWindow = 4096;  // 512 elements

  explicit StalledChannel(const WindowCase& c)
      : node_a_(NodeContext::create()), node_b_(NodeContext::create()) {
    auto ch = std::make_shared<Channel>(
        core::ChannelOptions{.capacity = 256,
                             .label = "stalled",
                             .remote = {.credit_window = kWindow}});
    std::shared_ptr<core::Process> producer =
        std::make_shared<Sequence>(0, ch->output());
    if (c.producer_moves) {
      const ByteVector shipment = ship_process(node_a_, producer);
      producer = receive_process(node_b_, {shipment.data(), shipment.size()});
      producer_node_ = node_b_;
      consumer_ = ch->input();
    } else {
      std::shared_ptr<core::Process> consumer = std::make_shared<Identity>(
          ch->input(), std::make_shared<Channel>(256)->output());
      const ByteVector shipment = ship_process(node_a_, consumer);
      // Received, so its endpoint dials in, but never run.
      consumer_host_ =
          receive_process(node_b_, {shipment.data(), shipment.size()});
      consumer_ = consumer_host_->channel_inputs().at(0);
      producer_node_ = node_a_;
    }
    if (c.on_fibers) {
      producers_.set_scheduler(sched::SchedulerOptions{
          .mode = sched::SchedMode::kWorkSteal, .workers = 2});
    }
    producers_.add(producer);
    producers_.start();
  }

  ~StalledChannel() {
    consumer_->close();
    producers_.join();
  }

  /// Waits until the producer is parked with at least `bytes` sent, then
  /// gives it 50 ms more; returns what it has sent by then.
  std::uint64_t parked_after(std::uint64_t bytes) const {
    const TrafficStats& traffic = *producer_node_->traffic();
    wait_until([&] {
      return traffic.bytes_sent.load() >= bytes &&
             traffic.blocked_remote_writers.load() > 0;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds{50});
    return traffic.bytes_sent.load();
  }
  core::ChannelInputStream& consumer() { return *consumer_; }
  core::Network& producers() { return producers_; }

 private:
  std::shared_ptr<NodeContext> node_a_;
  std::shared_ptr<NodeContext> node_b_;
  std::shared_ptr<NodeContext> producer_node_;
  std::shared_ptr<core::Process> consumer_host_;
  std::shared_ptr<core::ChannelInputStream> consumer_;
  core::Network producers_;
};

class RemoteWindow : public ::testing::TestWithParam<WindowCase> {};

// The producer of a consumer that never reads gets exactly one window of
// payload bytes ahead, then parks.
TEST_P(RemoteWindow, ProducerGetsExactlyTheWindowAhead) {
  StalledChannel channel{GetParam()};
  EXPECT_EQ(channel.parked_after(StalledChannel::kWindow),
            StalledChannel::kWindow);
}

// A consumer that closes while its producer is parked on the full window
// makes that producer's write throw ChannelClosed: the producer stops
// within a bounded time (the §3.4 cascade, consumer first).
TEST_P(RemoteWindow, ConsumerCloseWakesTheParkedProducer) {
  StalledChannel channel{GetParam()};
  ASSERT_EQ(channel.parked_after(StalledChannel::kWindow),
            StalledChannel::kWindow);
  channel.consumer().close();
  auto joined = std::async(std::launch::async,
                           [&] { channel.producers().join(); });
  EXPECT_EQ(joined.wait_for(std::chrono::seconds{10}),
            std::future_status::ready)
      << "producer still parked on the window";
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, RemoteWindow,
    ::testing::Values(WindowCase{false, false}, WindowCase{false, true},
                      WindowCase{true, false}, WindowCase{true, true}),
    [](const auto& instance) {
      return std::string{instance.param.producer_moves ? "producer_moves"
                                                       : "consumer_moves"} +
             (instance.param.on_fibers ? "_fibers" : "_threads");
    });

}  // namespace
}  // namespace dpn::dist
