#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <thread>

#include "cluster/cluster.hpp"
#include "core/channel.hpp"
#include "core/network.hpp"
#include "core/process.hpp"
#include "dist/remote_streams.hpp"
#include "factor/factor.hpp"
#include "io/data.hpp"
#include "io/memory.hpp"
#include "obs/flight.hpp"
#include "obs/prometheus.hpp"
#include "obs/snapshot.hpp"
#include "par/schema.hpp"
#include "processes/basic.hpp"
#include "processes/copy.hpp"
#include "processes/router.hpp"
#include "rmi/compute_server.hpp"
#include "rmi/telemetry.hpp"
#include "support/histogram.hpp"

#include "mux_peer.hpp"

namespace dpn::obs {
namespace {

using core::Channel;
using core::ChannelOptions;
using core::Network;
using processes::Collect;
using processes::CollectSink;
using processes::Identity;
using processes::Sequence;

// --- ChannelMetrics ---------------------------------------------------------

TEST(Metrics, CountsBytesAndTokensPerEndpointCall) {
  Channel channel{64};
  const std::uint8_t payload[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (int i = 0; i < 3; ++i) channel.output()->write({payload, 8});

  std::uint8_t sink[8];
  for (int i = 0; i < 3; ++i) channel.input()->read_fully({sink, 8});

  const ChannelSnapshot snap = core::snapshot_channel(*channel.state());
  EXPECT_EQ(snap.bytes_written, 24u);
  EXPECT_EQ(snap.tokens_written, 3u);
  EXPECT_EQ(snap.bytes_read, 24u);
  EXPECT_EQ(snap.tokens_read, 3u);
}

TEST(Metrics, TotalsDoNotDriftWithTheBound) {
  // The counters live *above* the transport, so the observable traffic of
  // the same token stream must not drift with the channel's bound
  // (zero-drift: ops teams compare these numbers across differently tuned
  // deployments).  A bound of one token makes every write wait for the
  // reader; the endpoint totals do not see that.
  auto run_stream = [](ChannelOptions options) {
    Channel channel{std::move(options)};
    std::jthread producer{[&] {
      io::DataOutputStream out{*channel.output()};
      for (std::int64_t i = 0; i < 100; ++i) out.write_i64(i);
      channel.output()->close();
    }};
    io::DataInputStream in{*channel.input()};
    for (std::int64_t i = 0; i < 100; ++i) EXPECT_EQ(in.read_i64(), i);
    producer.join();
    return core::snapshot_channel(*channel.state());
  };

  const ChannelSnapshot plain = run_stream({.capacity = 1024});
  const ChannelSnapshot narrow = run_stream({.capacity = 8});

  EXPECT_EQ(plain.bytes_written, 800u);
  EXPECT_EQ(plain.tokens_written, 100u);
  EXPECT_EQ(narrow.bytes_written, plain.bytes_written);
  EXPECT_EQ(narrow.tokens_written, plain.tokens_written);
  EXPECT_EQ(narrow.bytes_read, plain.bytes_read);
  EXPECT_EQ(narrow.tokens_read, plain.tokens_read);
  // Only the *transport* behaviour differs: the narrow pipe never held
  // more than its bound.
  EXPECT_LE(narrow.occupancy_hwm, 8u);
}

TEST(Metrics, BlockedTimeAndHighWaterMarkUnderBackpressure) {
  Channel channel{ChannelOptions{.capacity = 16, .label = "tiny"}};
  std::jthread producer{[&] {
    io::DataOutputStream out{*channel.output()};
    for (std::int64_t i = 0; i < 16; ++i) out.write_i64(i);  // 128 B > 16
    channel.output()->close();
  }};
  std::this_thread::sleep_for(std::chrono::milliseconds{20});
  io::DataInputStream in{*channel.input()};
  for (std::int64_t i = 0; i < 16; ++i) EXPECT_EQ(in.read_i64(), i);
  producer.join();

  const ChannelSnapshot snap = core::snapshot_channel(*channel.state());
  EXPECT_GT(snap.blocked_write_ns, 0u);
  EXPECT_GT(snap.occupancy_hwm, 0u);
  EXPECT_LE(snap.occupancy_hwm, 16u);
  EXPECT_GT(snap.writer_wakeups, 0u);
}

// --- Network::snapshot ------------------------------------------------------

TEST(Snapshot, ReflectsCompletedRun) {
  Network network;
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  network.connect(
      [&](auto out) { return std::make_shared<Sequence>(0, out, 64); },
      [&](auto in) { return std::make_shared<Collect>(in, sink); },
      {.capacity = 256, .label = "nums"});
  network.run();

  const NetworkSnapshot snap = network.snapshot();
  EXPECT_EQ(snap.live, 0u);
  ASSERT_EQ(snap.processes.size(), 2u);
  for (const ProcessSnapshot& p : snap.processes) {
    EXPECT_EQ(p.state, ProcessState::kFinished) << p.name;
    EXPECT_GT(p.steps, 0u) << p.name;
  }
  ASSERT_EQ(snap.channels.size(), 1u);
  const ChannelSnapshot& c = snap.channels[0];
  EXPECT_EQ(c.label, "nums");
  EXPECT_EQ(c.bytes_written, 64u * 8u);
  EXPECT_EQ(c.bytes_read, 64u * 8u);
  EXPECT_EQ(c.tokens_written, c.tokens_read);
  EXPECT_TRUE(c.write_closed);
  // And the human rendering mentions the channel.
  EXPECT_NE(snap.to_string().find("nums"), std::string::npos);
}

TEST(Snapshot, EncodeDecodeRoundTrip) {
  NetworkSnapshot snap;
  snap.live = 3;
  snap.outcome = 1;
  snap.growth_events = 2;
  snap.remote_bytes_sent = 11111;
  snap.remote_bytes_received = 22222;
  snap.processes.push_back({"alpha", ProcessState::kBlockedReading, 42});
  snap.processes.push_back({"beta", ProcessState::kFinished, 7});
  ChannelSnapshot c;
  c.id = 99;
  c.label = "wire";
  c.has_pipe = true;
  c.input_remote = true;
  c.write_closed = true;
  c.capacity = 4096;
  c.buffered = 128;
  c.occupancy_hwm = 512;
  c.bytes_written = 1000;
  c.tokens_written = 125;
  c.bytes_read = 872;
  c.tokens_read = 109;
  c.blocked_read_ns = 1234567;
  c.reader_wakeups = 55;
  c.blocked_readers = 1;
  snap.channels.push_back(c);

  const ByteVector bytes = snap.encode();
  const NetworkSnapshot copy = NetworkSnapshot::decode({bytes.data(),
                                                        bytes.size()});
  EXPECT_EQ(copy.live, 3u);
  EXPECT_EQ(copy.outcome, 1);
  EXPECT_EQ(copy.growth_events, 2u);
  EXPECT_EQ(copy.remote_bytes_sent, 11111u);
  EXPECT_EQ(copy.remote_bytes_received, 22222u);
  ASSERT_EQ(copy.processes.size(), 2u);
  EXPECT_EQ(copy.processes[0].name, "alpha");
  EXPECT_EQ(copy.processes[0].state, ProcessState::kBlockedReading);
  EXPECT_EQ(copy.processes[0].steps, 42u);
  EXPECT_EQ(copy.processes[1].name, "beta");
  ASSERT_EQ(copy.channels.size(), 1u);
  const ChannelSnapshot& d = copy.channels[0];
  EXPECT_EQ(d.id, 99u);
  EXPECT_EQ(d.label, "wire");
  EXPECT_TRUE(d.has_pipe);
  EXPECT_TRUE(d.input_remote);
  EXPECT_FALSE(d.output_remote);
  EXPECT_TRUE(d.write_closed);
  EXPECT_EQ(d.capacity, 4096u);
  EXPECT_EQ(d.buffered, 128u);
  EXPECT_EQ(d.occupancy_hwm, 512u);
  EXPECT_EQ(d.bytes_written, 1000u);
  EXPECT_EQ(d.tokens_written, 125u);
  EXPECT_EQ(d.bytes_read, 872u);
  EXPECT_EQ(d.tokens_read, 109u);
  EXPECT_EQ(d.blocked_read_ns, 1234567u);
  EXPECT_EQ(d.reader_wakeups, 55u);
  EXPECT_EQ(d.blocked_readers, 1u);
}

// --- grow_smallest_blocked: growth needs live evidence ----------------------

/// Consumer that holds its channel untouched until the test opens the
/// gate, so the producer is observably write-blocked for as long as the
/// test needs.
class GatedDrain final : public core::IterativeProcess {
 public:
  GatedDrain(std::shared_ptr<core::ChannelInputStream> in,
             std::shared_ptr<std::atomic<bool>> gate)
      : IterativeProcess(1), gate_(std::move(gate)) {
    track_input(std::move(in));
  }

  std::string type_name() const override { return "test.GatedDrain"; }
  void write_fields(serial::ObjectOutputStream&) const override {}

 protected:
  void step() override {
    while (!gate_->load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds{1});
    }
    io::DataInputStream in{*input(0)};
    for (;;) in.read_i64();  // until EndOfStream stops the process
  }

 private:
  std::shared_ptr<std::atomic<bool>> gate_;
};

TEST(Snapshot, GrowthIsRefusedOnStaleStallEvidence) {
  // Regression for the monitor poll-vs-exit race: a stall snapshot taken
  // while the network was genuinely wedged must not justify growth after
  // the network has moved on (phantom growth after process exit).
  Network network;
  auto gate = std::make_shared<std::atomic<bool>>(false);
  auto channel = network.make_channel({.capacity = 16, .label = "tiny"});
  network.add(std::make_shared<Sequence>(0, channel->output(), 16));
  network.add(std::make_shared<GatedDrain>(channel->input(), gate));
  network.start();

  // Wait for the producer to be observably write-blocked.
  NetworkSnapshot stall;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds{10};
  for (;;) {
    stall = network.snapshot();
    if (stall.has_write_blocked()) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "producer never blocked";
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  ASSERT_NE(stall.smallest_write_blocked(), nullptr);
  EXPECT_EQ(stall.smallest_write_blocked()->label, "tiny");

  // Live evidence: the writer still waits, so growth happens right now.
  const std::uint64_t doubled = 2 * stall.smallest_write_blocked()->capacity;
  EXPECT_TRUE(network.grow_smallest_blocked(doubled));
  EXPECT_EQ(network.snapshot().channels[0].capacity, 32u);

  gate->store(true);
  network.join();
  EXPECT_EQ(network.live_processes(), 0u);

  // Stale evidence: the old stall snapshot no longer describes reality,
  // since no writer waits any more.
  EXPECT_FALSE(network.grow_smallest_blocked(2 * doubled));
  EXPECT_EQ(network.snapshot().channels[0].capacity, 32u);
}

// --- Tracer: the flight recorder's token level -----------------------------

/// Empties every ring's window, runs `body` on a new thread at `level`,
/// then returns to the default level and yields the events recorded as
/// `who`.  The thread may record into a ring an exited thread handed back.
template <typename Body>
std::vector<FlightEvent> record_on_thread(FlightLevel level, const char* who,
                                          Body body) {
  flight_reset();
  std::thread{[&] {
    set_flight_level(level);
    body();
    set_flight_level(FlightLevel::kPostMortem);
  }}.join();
  std::vector<FlightEvent> mine;
  for (const FlightEvent& event : flight_export().events) {
    if (std::string_view{event.who, strnlen(event.who, sizeof event.who)} ==
        who) {
      mine.push_back(event);
    }
  }
  return mine;
}

TEST(Tracer, RingKeepsNewestOnWraparound) {
  // Far past the ring capacity, so the thread's ring must wrap.
  constexpr std::uint64_t kEvents = 5000;
  const FlightCounters before = flight_counters();
  const std::vector<FlightEvent> events =
      record_on_thread(FlightLevel::kTokens, "wrap", [] {
        for (std::uint64_t i = 0; i < kEvents; ++i) {
          DPN_FLIGHT_TOKEN(FlightKind::kTaskDispatch, "wrap", i);
        }
      });
  const std::uint64_t dropped = flight_counters().dropped - before.dropped;
  const std::uint64_t lost = kEvents - events.size();
  ASSERT_GT(lost, 0u);
  // In a ring an exited thread handed back, `dropped` also counts that
  // thread's events the wrap overwrote.
  EXPECT_GE(dropped, lost);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, lost + i);  // oldest survivor first
  }

  const std::string json = flight_chrome_json({.events = events});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("par.dispatch"), std::string::npos);
  EXPECT_NE(json.find("\"who\":\"wrap\""), std::string::npos);
}

TEST(Tracer, DisabledRecordsNothing) {
  // Below the token level a token site records nothing -- at the default
  // level as at kOff -- and at it, it records once.
  for (const FlightLevel level : {FlightLevel::kOff, FlightLevel::kPostMortem}) {
    EXPECT_TRUE(record_on_thread(level, "dead", [] {
                  DPN_FLIGHT_TOKEN(FlightKind::kChanWrite, "dead", 1, 2);
                }).empty());
  }
  EXPECT_EQ(record_on_thread(FlightLevel::kTokens, "live", [] {
              DPN_FLIGHT_TOKEN(FlightKind::kChanWrite, "live", 1, 2);
            }).size(),
            1u);
  EXPECT_EQ(flight_level(), FlightLevel::kPostMortem);
  EXPECT_FALSE(flight_tokens());
}

TEST(Tracer, ChannelOperationsLandInTheRing) {
  std::uint64_t id = 0;
  const std::vector<FlightEvent> events =
      record_on_thread(FlightLevel::kTokens, "traced", [&] {
        Channel channel{ChannelOptions{.capacity = 64, .label = "traced"}};
        id = channel.state()->id;
        io::DataOutputStream out{*channel.output()};
        io::DataInputStream in{*channel.input()};
        out.write_i64(5);
        EXPECT_EQ(in.read_i64(), 5);
        channel.output()->close();
      });

  bool saw_write = false;
  bool saw_read = false;
  bool saw_close = false;
  for (const FlightEvent& event : events) {
    const auto kind = static_cast<FlightKind>(event.kind);
    EXPECT_EQ(event.a, id);
    saw_write |= kind == FlightKind::kChanWrite && event.b == 8;
    saw_read |= kind == FlightKind::kChanRead && event.b == 8;
    saw_close |= kind == FlightKind::kChanClose;
  }
  EXPECT_TRUE(saw_write);
  EXPECT_TRUE(saw_read);
  EXPECT_TRUE(saw_close);
}

// --- STATS over the wire ----------------------------------------------------

TEST(Stats, RemoteRoundTripSeesHostedGraph) {
  auto client_node = dist::NodeContext::create();
  rmi::ComputeServer server{"stats-host"};

  auto ch1 = std::make_shared<Channel>(256, "in");
  auto ch2 = std::make_shared<Channel>(256, "out");
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto middle = std::make_shared<Identity>(ch1->input(), ch2->output());

  rmi::ServerHandle handle{rmi::Endpoint{"127.0.0.1", server.port()},
                           client_node};
  rmi::ProcessHandle hosted = handle.submit(middle);
  ASSERT_TRUE(hosted.valid());

  auto source = std::make_shared<Sequence>(0, ch1->output(), 32);
  auto drain = std::make_shared<Collect>(ch2->input(), sink);
  std::jthread src{[&] { source->run(); }};
  drain->run();
  ASSERT_EQ(sink->size(), 32u);

  hosted.join();  // the graph has terminated; join must not block

  // The STATS reply decodes into the server's view of the hosted graph:
  // the Identity process (finished, with steps) and its two reconnected
  // channel endpoints, which carried 32 tokens each way.
  const NetworkSnapshot snap = handle.stats();
  EXPECT_EQ(snap.live, 0u);
  ASSERT_EQ(snap.processes.size(), 1u);
  EXPECT_EQ(snap.processes[0].state, ProcessState::kFinished);
  EXPECT_GT(snap.processes[0].steps, 0u);
  ASSERT_EQ(snap.channels.size(), 2u);
  // Identity is a byte copy (read_some chunks), so token counts depend on
  // arrival batching; the byte totals are exact: 32 i64s each way.
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  for (const ChannelSnapshot& c : snap.channels) {
    bytes_in += c.bytes_read;
    bytes_out += c.bytes_written;
  }
  EXPECT_EQ(bytes_in, 32u * 8u);   // the shipped input endpoint's reads
  EXPECT_EQ(bytes_out, 32u * 8u);  // the shipped output endpoint's writes
  // Both directions crossed this node's sockets.
  EXPECT_GT(snap.remote_bytes_sent, 0u);
  EXPECT_GT(snap.remote_bytes_received, 0u);

  std::vector<rmi::ServerHandle> fleet{handle};
  const NetworkSnapshot merged = rmi::fleet_stats(fleet);
  EXPECT_EQ(merged.processes.size(), 1u);
  EXPECT_EQ(merged.remote_bytes_sent, snap.remote_bytes_sent);
}

TEST(Stats, AbortUnblocksHostedProcess) {
  auto client_node = dist::NodeContext::create();
  rmi::ComputeServer server{"abort-host"};

  // Host an Identity that will never receive data: it parks in a blocking
  // read on the server until abort() closes its endpoints.
  auto ch1 = std::make_shared<Channel>(64, "silent-in");
  auto ch2 = std::make_shared<Channel>(64, "silent-out");
  auto middle = std::make_shared<Identity>(ch1->input(), ch2->output());

  rmi::ServerHandle handle{rmi::Endpoint{"127.0.0.1", server.port()},
                           client_node};
  rmi::ProcessHandle hosted = handle.submit(middle);
  ASSERT_TRUE(hosted.valid());

  hosted.abort();
  hosted.join();  // must return: close propagated end-of-stream
  EXPECT_EQ(handle.stats().live, 0u);
}

// --- Latency histograms (obs v2) --------------------------------------------

TEST(Histogram, BucketLayoutCoversSubMicrosecondToSeconds) {
  EXPECT_EQ(HistogramSnapshot::bucket_of(0), 0u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(999), 0u);     // < 1us
  EXPECT_EQ(HistogramSnapshot::bucket_of(1000), 1u);    // [1us, 2us)
  EXPECT_EQ(HistogramSnapshot::bucket_of(1999), 1u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(2000), 2u);    // [2us, 4us)
  EXPECT_EQ(HistogramSnapshot::bucket_of(1000000), 10u);  // 1ms
  // Anything beyond the table clamps into the open-ended last bucket.
  EXPECT_EQ(HistogramSnapshot::bucket_of(~std::uint64_t{0}),
            HistogramSnapshot::kBuckets - 1);
  EXPECT_EQ(HistogramSnapshot::bucket_bound_ns(0), 1000u);
  EXPECT_EQ(HistogramSnapshot::bucket_bound_ns(1), 2000u);
  EXPECT_EQ(HistogramSnapshot::bucket_bound_ns(10), 1024u * 1000u);
}

TEST(Histogram, RecordSnapshotPercentilesAndMerge) {
  LatencyHistogram hist;
  for (int i = 0; i < 90; ++i) hist.record(500);        // bucket 0
  for (int i = 0; i < 9; ++i) hist.record_shared(3000);  // bucket 2
  hist.record(50'000'000);                               // 50ms

  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_EQ(snap.sum_ns, 90u * 500u + 9u * 3000u + 50'000'000u);
  EXPECT_EQ(snap.p50_ns(), 1000u);   // inside bucket 0
  EXPECT_EQ(snap.p95_ns(), 4000u);   // inside bucket 2
  EXPECT_GT(snap.percentile_ns(0.999), 4000u);  // the 50ms outlier

  HistogramSnapshot other = snap;
  other.merge(snap);
  EXPECT_EQ(other.count, 200u);
  EXPECT_EQ(other.counts[0], 180u);
  EXPECT_EQ(other.sum_ns, 2 * snap.sum_ns);

  const HistogramSnapshot empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.percentile_ns(0.99), 0u);
}

TEST(Histogram, PipeRecordsWaitDistributionUnderBackpressure) {
  Channel channel{ChannelOptions{.capacity = 16, .label = "shaped"}};
  std::jthread producer{[&] {
    io::DataOutputStream out{*channel.output()};
    for (std::int64_t i = 0; i < 16; ++i) out.write_i64(i);  // 128 B > 16
    channel.output()->close();
  }};
  std::this_thread::sleep_for(std::chrono::milliseconds{20});
  io::DataInputStream in{*channel.input()};
  for (std::int64_t i = 0; i < 16; ++i) EXPECT_EQ(in.read_i64(), i);
  producer.join();

  const ChannelSnapshot snap = core::snapshot_channel(*channel.state());
  // The scalar total and the histogram describe the same waits.
  ASSERT_GT(snap.write_block.count, 0u);
  EXPECT_EQ(snap.write_block.sum_ns, snap.blocked_write_ns);
  EXPECT_GT(snap.write_block.p95_ns(), 0u);
}

// --- NetworkSnapshot: counters and histograms on the wire -------------------

NetworkSnapshot make_v3_sample() {
  NetworkSnapshot snap;
  snap.live = 1;
  snap.growth_events = 4;
  snap.connect_retries = 2;
  snap.faults_injected = 6;
  snap.flight_recorded = 1000;
  snap.flight_dropped = 24;
  for (int i = 0; i < 50; ++i) snap.task_rtt.counts[3] += 1;
  snap.task_rtt.count = 50;
  snap.task_rtt.sum_ns = 300000;
  snap.connect_latency.counts[11] = 7;
  snap.connect_latency.count = 7;
  snap.connect_latency.sum_ns = 7'000'000;
  snap.sched_workers = 2;
  snap.sched_spawned = 40;
  snap.sched_completed = 40;
  snap.sched_steals = 11;
  snap.sched_dispatches = 95;
  snap.sched_parks = 3;
  snap.mux_connections = 3;
  snap.mux_streams_active = 128;
  snap.mux_streams_total = 500;
  snap.mux_credit_stalls = 17;
  snap.mux_credit_stall_ns = 9'000'000;
  ChannelSnapshot c;
  c.id = 5;
  c.label = "v3";
  c.blocked_write_ns = 12345;
  c.write_block.counts[4] = 3;
  c.write_block.count = 3;
  c.write_block.sum_ns = 12345;
  c.read_block.counts[0] = 1;
  c.read_block.count = 1;
  c.read_block.sum_ns = 10;
  snap.channels.push_back(c);
  snap.processes.push_back({"p", ProcessState::kRunning, 9});
  return snap;
}

TEST(SnapshotV3, TraceCountersAndHistogramsRoundTrip) {
  const NetworkSnapshot snap = make_v3_sample();
  const ByteVector bytes = snap.encode();
  const NetworkSnapshot copy =
      NetworkSnapshot::decode({bytes.data(), bytes.size()});
  EXPECT_EQ(copy.flight_recorded, 1000u);
  EXPECT_EQ(copy.flight_dropped, 24u);
  EXPECT_EQ(copy.task_rtt.count, 50u);
  EXPECT_EQ(copy.task_rtt.counts[3], 50u);
  EXPECT_EQ(copy.task_rtt.sum_ns, 300000u);
  EXPECT_EQ(copy.connect_latency.count, 7u);
  ASSERT_EQ(copy.channels.size(), 1u);
  EXPECT_EQ(copy.channels[0].write_block.count, 3u);
  EXPECT_EQ(copy.channels[0].write_block.counts[4], 3u);
  EXPECT_EQ(copy.channels[0].read_block.count, 1u);
  // The scheduler counters round-trip too.
  EXPECT_EQ(copy.sched_workers, 2u);
  EXPECT_EQ(copy.sched_steals, 11u);
  EXPECT_EQ(copy.sched_dispatches, 95u);
  // ...and the mux transport counters.
  EXPECT_EQ(copy.mux_connections, 3u);
  EXPECT_EQ(copy.mux_streams_active, 128u);
  EXPECT_EQ(copy.mux_streams_total, 500u);
  EXPECT_EQ(copy.mux_credit_stalls, 17u);
  EXPECT_EQ(copy.mux_credit_stall_ns, 9'000'000u);
  // The rendering includes the new percentile lines.
  EXPECT_NE(copy.to_string().find("task rtt"), std::string::npos);
  EXPECT_NE(copy.to_string().find("flight: recorded=1000"), std::string::npos);
  EXPECT_NE(copy.to_string().find("sched: workers=2"), std::string::npos);
  EXPECT_NE(copy.to_string().find("mux: connections=3"), std::string::npos);
}

// --- TraceContext + frame extension -----------------------------------------

TEST(TraceContext, WireRoundTrip) {
  TraceContext ctx;
  ctx.trace_id = 0x0123456789abcdefULL;
  ctx.span_id = 42;
  ctx.flags = TraceContext::kSampled;
  std::uint8_t wire[TraceContext::kWireSize];
  ctx.encode(wire);
  const TraceContext copy = TraceContext::decode(wire);
  EXPECT_EQ(copy.trace_id, ctx.trace_id);
  EXPECT_EQ(copy.span_id, 42u);
  EXPECT_EQ(copy.flags, TraceContext::kSampled);
  EXPECT_TRUE(copy.valid());
  EXPECT_FALSE(TraceContext{}.valid());
}

// A traced write leaves as one DATA_TRACED frame: the writer's context,
// then the bytes.
TEST(Frames, DataTracedCarriesContextPrefix) {
  net::test::RawPeer peer{1u << 20};
  auto stream = peer.dial();
  peer.next_open();
  set_flight_level(FlightLevel::kTokens);
  TraceContext& ambient = current_trace_context();
  ambient.trace_id = 7;
  ambient.span_id = 9;
  ambient.flags = TraceContext::kSampled;
  const std::uint8_t payload[4] = {10, 20, 30, 40};
  stream->write_all({payload, sizeof payload});
  ambient = {};
  set_flight_level(FlightLevel::kPostMortem);

  const net::test::RawPeer::Frame frame = peer.next_data_or_fin();
  EXPECT_EQ(frame.type, net::test::kDataTraced);
  ASSERT_EQ(frame.payload.size(), TraceContext::kWireSize + sizeof payload);
  const TraceContext copy = TraceContext::decode(frame.payload.data());
  EXPECT_EQ(copy.trace_id, 7u);
  EXPECT_EQ(copy.span_id, 9u);
  EXPECT_EQ(frame.payload[TraceContext::kWireSize], 10);
  EXPECT_EQ(frame.payload[TraceContext::kWireSize + 3], 40);
}

TEST(Frames, RedirectContextIsOptionalOnTheWire) {
  dist::RedirectInfo info;
  info.token = 77;
  const ByteVector plain = info.encode();
  EXPECT_EQ(plain.size(), 8u);
  const dist::RedirectInfo plain_copy =
      dist::RedirectInfo::decode({plain.data(), plain.size()});
  EXPECT_EQ(plain_copy.token, 77u);
  EXPECT_FALSE(plain_copy.trace.valid());  // no context sent

  info.trace.trace_id = 5;
  info.trace.span_id = 6;
  info.trace.flags = TraceContext::kSampled;
  const ByteVector traced = info.encode();
  EXPECT_EQ(traced.size(), plain.size() + TraceContext::kWireSize);
  const dist::RedirectInfo traced_copy =
      dist::RedirectInfo::decode({traced.data(), traced.size()});
  EXPECT_EQ(traced_copy.token, 77u);
  EXPECT_TRUE(traced_copy.trace.valid());
  EXPECT_EQ(traced_copy.trace.trace_id, 5u);
  EXPECT_EQ(traced_copy.trace.span_id, 6u);
  // The token alone is still a whole message.
  const dist::RedirectInfo prefix_copy =
      dist::RedirectInfo::decode({traced.data(), plain.size()});
  EXPECT_EQ(prefix_copy.token, 77u);
  EXPECT_FALSE(prefix_copy.trace.valid());
}

// --- Tracer drop accounting --------------------------------------------------

TEST(Tracer, DroppedSurfacesInSnapshotAndExportedMetadata) {
  const FlightCounters before = flight_counters();
  const std::vector<FlightEvent> survivors =
      record_on_thread(FlightLevel::kTokens, "x", [] {
        for (int i = 0; i < 5000; ++i) {
          DPN_FLIGHT_TOKEN(FlightKind::kChanWrite, "x");
        }
      });
  EXPECT_GE(flight_counters().recorded - before.recorded, 5000u);
  // At least this thread's overwritten events; a handed-back ring adds its
  // previous owner's.
  EXPECT_GE(flight_counters().dropped - before.dropped,
            5000u - survivors.size());

  NetworkSnapshot snap;
  snap.fill_runtime_counters();
  EXPECT_GE(snap.flight_recorded, 5000u);
  EXPECT_GE(snap.flight_dropped, 5000u - survivors.size());

  const FlightExport exported = flight_export();
  EXPECT_GE(exported.dropped, 5000u - survivors.size());
  const std::string json = flight_chrome_json(exported);
  EXPECT_NE(json.find("\"dropped\":" + std::to_string(exported.dropped)),
            std::string::npos);
  EXPECT_NE(json.find("\"recorded\":" + std::to_string(exported.recorded)),
            std::string::npos);

  const ByteVector bytes = exported.encode();
  const FlightExport copy = FlightExport::decode({bytes.data(), bytes.size()});
  EXPECT_EQ(copy.dropped, exported.dropped);
  ASSERT_EQ(copy.events.size(), exported.events.size());
}

// --- STATS_STREAM + Prometheus (the live telemetry plane) -------------------

TEST(Telemetry, StatsStreamDeliversExactlyCountedSnapshots) {
  auto client_node = dist::NodeContext::create();
  rmi::ComputeServer server{"stream-host"};
  rmi::ServerHandle handle{rmi::Endpoint{"127.0.0.1", server.port()},
                           client_node};
  rmi::StatsStream stream =
      handle.stats_stream(std::chrono::milliseconds{10}, 3);
  ASSERT_TRUE(stream.valid());
  int frames = 0;
  while (stream.next()) ++frames;
  EXPECT_EQ(frames, 3);
  EXPECT_FALSE(stream.valid());  // clean end-of-stream consumed the socket
}

TEST(Telemetry, StatsStreamEndsWhenServerStops) {
  auto client_node = dist::NodeContext::create();
  auto server = std::make_unique<rmi::ComputeServer>("stopping-host");
  rmi::ServerHandle handle{rmi::Endpoint{"127.0.0.1", server->port()},
                           client_node};
  rmi::StatsStream stream =
      handle.stats_stream(std::chrono::milliseconds{5}, 0);
  ASSERT_TRUE(stream.next().has_value());  // the stream is live
  std::jthread stopper{[&] { server->stop(); }};
  int drained = 0;
  while (stream.next() && drained < 1000) ++drained;
  // stop() terminated an unbounded stream without hanging either side.
  SUCCEED();
}

TEST(Telemetry, PrometheusRenderingExposesCountersAndHistograms) {
  const NetworkSnapshot snap = make_v3_sample();
  const std::string text = render_prometheus(snap);
  EXPECT_NE(text.find("dpn_processes_live 1"), std::string::npos);
  EXPECT_NE(text.find("dpn_connect_retries_total 2"), std::string::npos);
  EXPECT_NE(text.find("dpn_flight_events_dropped_total 24"),
            std::string::npos);
  EXPECT_EQ(text.find("dpn_trace_events"), std::string::npos);
  EXPECT_NE(text.find("dpn_task_rtt_seconds_count 50"), std::string::npos);
  EXPECT_NE(text.find("dpn_task_rtt_seconds_bucket"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 50"), std::string::npos);
  EXPECT_NE(text.find("dpn_channel_write_block_seconds_count{channel=\"v3\"}"),
            std::string::npos);
}

TEST(Telemetry, PrometheusExporterAnswersHttpScrapes) {
  rmi::PrometheusExporter exporter{[] {
    NetworkSnapshot snap;
    snap.live = 2;
    return snap;
  }};
  ASSERT_NE(exporter.port(), 0);
  net::Socket scrape = net::Socket::connect("127.0.0.1", exporter.port());
  const std::string request = "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n";
  scrape.write_all({reinterpret_cast<const std::uint8_t*>(request.data()),
                    request.size()});
  std::string response;
  std::uint8_t chunk[1024];
  for (;;) {
    const std::size_t n = scrape.read_some({chunk, sizeof chunk});
    if (n == 0) break;
    response.append(reinterpret_cast<const char*>(chunk), n);
  }
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain"), std::string::npos);
  EXPECT_NE(response.find("dpn_processes_live 2"), std::string::npos);
  exporter.stop();
}

// --- Acceptance: two-host causal trace --------------------------------------

TEST(FleetTrace, TwoHostDynamicRunMergesOneCausalTimeline) {
  // The dynamic-balancing schema of Figure 17, really cut across two
  // in-process "hosts": each worker is shipped to its own ComputeServer
  // and all task/result traffic crosses loopback TCP.  At the recorder's
  // token level, fleet_trace must merge the three hosts' windows (local +
  // both servers) into one Chrome trace where a token's spans cross the
  // host boundary with a flow arrow and the ship handshake forms a
  // causally-linked pair.
  constexpr std::size_t kWorkers = 2;
  flight_reset();
  set_flight_level(FlightLevel::kTokens);

  auto node = dist::NodeContext::create();
  std::vector<std::unique_ptr<rmi::ComputeServer>> servers;
  std::vector<rmi::ServerHandle> handles;
  std::vector<std::shared_ptr<core::ChannelOutputStream>> task_outs;
  std::vector<std::shared_ptr<core::ChannelInputStream>> result_ins;
  auto composite = std::make_shared<core::CompositeProcess>();
  for (std::size_t i = 0; i < kWorkers; ++i) {
    auto tasks = std::make_shared<Channel>(4096);
    auto results = std::make_shared<Channel>(4096);
    auto worker = std::make_shared<cluster::ThrottledWorker>(
        tasks->input(), results->output(), /*speed=*/1.0,
        /*task_seconds=*/0.001);
    servers.push_back(std::make_unique<rmi::ComputeServer>(
        "trace-worker-" + std::to_string(i)));
    handles.emplace_back(rmi::Endpoint{"127.0.0.1", servers.back()->port()},
                         node);
    handles.back().submit(worker);
    task_outs.push_back(tasks->output());
    result_ins.push_back(results->input());
  }

  const auto problem = factor::FactorProblem::generate(3, 64, 6);
  auto in = std::make_shared<Channel>(4096);
  auto out = std::make_shared<Channel>(4096);
  auto merged = std::make_shared<Channel>(4096);
  auto tags = std::make_shared<Channel>(4096);
  auto prefix = std::make_shared<Channel>(4096);
  auto index = std::make_shared<Channel>(4096);
  composite->add(std::make_shared<par::Producer>(
      std::make_shared<factor::FactorProducerTask>(problem.n, 6),
      in->output()));
  composite->add(std::make_shared<processes::Turnstile>(
      result_ins, merged->output(), tags->output()));
  composite->add(std::make_shared<Sequence>(
      0, prefix->output(), static_cast<long>(kWorkers)));
  composite->add(std::make_shared<processes::Cons>(
      prefix->input(), tags->input(), index->output()));
  composite->add(std::make_shared<processes::Direct>(
      in->input(), index->input(), task_outs));
  composite->add(std::make_shared<processes::Select>(
      merged->input(), out->output(), kWorkers));
  std::atomic<int> results_seen{0};
  composite->add(std::make_shared<par::Consumer>(
      out->input(), 0,
      [&](const std::shared_ptr<core::Task>&) { ++results_seen; }));
  composite->run();
  EXPECT_EQ(results_seen.load(), 6);

  set_flight_level(FlightLevel::kPostMortem);
  const std::string json = rmi::fleet_trace(handles);
  const std::vector<FlightEvent> events = rmi::fleet_flight(handles).events;
  for (auto& server : servers) server->stop();

  // Event-level causality: a ship.send on the local host answered by a
  // ship.recv on another host with the same span id, and a data span
  // (net.send/net.recv) whose two halves live on different hosts.
  std::map<std::uint64_t, std::uint16_t> ship_sends;
  std::map<std::uint64_t, std::uint16_t> net_sends;
  bool ship_pair = false;
  bool net_pair = false;
  const auto is = [](const FlightEvent& event, FlightKind kind) {
    return event.kind == static_cast<std::uint8_t>(kind);
  };
  for (const FlightEvent& event : events) {
    if (is(event, FlightKind::kShipSend)) ship_sends[event.a] = event.node;
    if (is(event, FlightKind::kNetSend)) net_sends[event.a] = event.node;
  }
  for (const FlightEvent& event : events) {
    if (is(event, FlightKind::kShipRecv)) {
      const auto it = ship_sends.find(event.a);
      if (it != ship_sends.end() && it->second != event.node) ship_pair = true;
    }
    if (is(event, FlightKind::kNetRecv)) {
      const auto it = net_sends.find(event.a);
      if (it != net_sends.end() && it->second != event.node) net_pair = true;
    }
  }
  EXPECT_TRUE(ship_pair) << "no cross-host ship.send/ship.recv span pair";
  EXPECT_TRUE(net_pair) << "no token crossed a host boundary with a span";

  // Merged JSON: one timeline, per-host pid rows, flow arrows both ways.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"dpn host 0 (local)\""), std::string::npos);
  // Server tags come from a process-wide counter, so each server's row is
  // named after its own trace_tag(), whatever ran in this process before.
  for (const auto& server : servers) {
    const std::string label =
        "\"dpn host " + std::to_string(server->trace_tag()) + "\"";
    EXPECT_NE(json.find(label), std::string::npos) << label;
  }
  EXPECT_NE(json.find("\"name\":\"ship.send\""), std::string::npos)
      << json.substr(0, 400);
  EXPECT_NE(json.find("\"name\":\"ship.recv\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"net.send\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"net.recv\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"metadata\":{\"recorded\":"), std::string::npos);
}

}  // namespace
}  // namespace dpn::obs
