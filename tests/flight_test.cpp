#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/channel.hpp"
#include "core/network.hpp"
#include "core/process.hpp"
#include "core/typed.hpp"
#include "dist/node.hpp"
#include "fault/fault.hpp"
#include "io/data.hpp"
#include "net/socket.hpp"
#include "obs/flight.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "rmi/compute_server.hpp"
#include "support/error.hpp"

namespace dpn {
namespace {

std::string who_of(const obs::FlightEvent& event) {
  return std::string{event.who, strnlen(event.who, sizeof event.who)};
}

std::uint8_t raw(obs::FlightKind kind) {
  return static_cast<std::uint8_t>(kind);
}

obs::FlightEvent make_event(obs::FlightKind kind, const char* who,
                            std::uint64_t a, std::uint64_t b = 0,
                            std::uint64_t ts_ns = 0) {
  obs::FlightEvent event;
  event.ts_ns = ts_ns;
  event.a = a;
  event.b = b;
  event.kind = raw(kind);
  std::snprintf(event.who, sizeof event.who, "%s", who);
  return event;
}

// --- Wire format ------------------------------------------------------------

TEST(FlightWire, ExportRoundTripsAllFields) {
  obs::FlightExport original;
  original.node = 3;
  original.export_ns = 123456789;
  original.recorded = 1000;
  original.dropped = 24;
  original.dumps = 2;
  for (std::uint64_t i = 0; i < 5; ++i) {
    obs::FlightEvent event = make_event(obs::FlightKind::kChanBlockRead,
                                        "proc", i, i * 2, 1000 + i);
    event.tid = 7;
    event.node = 3;
    original.events.push_back(event);
  }

  const ByteVector bytes = original.encode();
  const obs::FlightExport copy =
      obs::FlightExport::decode({bytes.data(), bytes.size()});

  EXPECT_EQ(copy.node, original.node);
  EXPECT_EQ(copy.export_ns, original.export_ns);
  EXPECT_EQ(copy.recorded, original.recorded);
  EXPECT_EQ(copy.dropped, original.dropped);
  EXPECT_EQ(copy.dumps, original.dumps);
  ASSERT_EQ(copy.events.size(), original.events.size());
  for (std::size_t i = 0; i < copy.events.size(); ++i) {
    EXPECT_EQ(copy.events[i].ts_ns, original.events[i].ts_ns);
    EXPECT_EQ(copy.events[i].a, original.events[i].a);
    EXPECT_EQ(copy.events[i].b, original.events[i].b);
    EXPECT_EQ(copy.events[i].tid, original.events[i].tid);
    EXPECT_EQ(copy.events[i].node, original.events[i].node);
    EXPECT_EQ(copy.events[i].kind, original.events[i].kind);
    EXPECT_EQ(who_of(copy.events[i]), who_of(original.events[i]));
  }
}

TEST(FlightWire, TruncatedPayloadKeepsWholeEvents) {
  // A crash dump can be cut off mid-write; decode must keep every event
  // that made it to disk whole and drop the torn tail, not throw.
  obs::FlightExport original;
  for (std::uint64_t i = 0; i < 4; ++i) {
    original.events.push_back(
        make_event(obs::FlightKind::kSchedPark, "p", i, 0, i));
  }
  ByteVector bytes = original.encode();
  bytes.resize(bytes.size() - 30);  // tear the last event

  const obs::FlightExport copy =
      obs::FlightExport::decode({bytes.data(), bytes.size()});
  ASSERT_EQ(copy.events.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) EXPECT_EQ(copy.events[i].a, i);
}

// --- Ring behaviour ---------------------------------------------------------

TEST(FlightRing, WrapKeepsNewestWindowInOrder) {
  const obs::FlightCounters before = obs::flight_counters();
  // Far past the default ring capacity (2048) so the ring must wrap.
  constexpr std::uint64_t kEvents = 5000;
  std::thread recorder{[] {
    obs::flight_set_actor("wraptest");
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      obs::flight_record(obs::FlightKind::kSchedPark, i, i * 3);
    }
  }};
  recorder.join();

  const obs::FlightCounters after = obs::flight_counters();
  EXPECT_EQ(after.recorded - before.recorded, kEvents);
  const std::uint64_t dropped = after.dropped - before.dropped;
  EXPECT_GT(dropped, 0u);

  std::vector<obs::FlightEvent> mine;
  for (const obs::FlightEvent& event : obs::flight_export().events) {
    if (who_of(event) == "wraptest") mine.push_back(event);
  }
  // Deterministic window: exactly the newest kEvents - dropped events,
  // in recording order (export is sorted stably by timestamp, and a
  // single ring is walked oldest-first).
  ASSERT_EQ(mine.size(), kEvents - dropped);
  const std::uint64_t first = kEvents - mine.size();
  for (std::size_t j = 0; j < mine.size(); ++j) {
    EXPECT_EQ(mine[j].a, first + j);
    EXPECT_EQ(mine[j].b, (first + j) * 3);
  }
}

TEST(FlightRing, ResetClearsWindowKeepsLifetimeTotals) {
  std::thread recorder{[] {
    obs::flight_set_actor("resettest");
    obs::flight_record(obs::FlightKind::kSchedUnpark, 1);
  }};
  recorder.join();

  const obs::FlightCounters before = obs::flight_counters();
  EXPECT_GT(before.recorded, 0u);
  obs::flight_reset();
  const obs::FlightCounters after = obs::flight_counters();
  EXPECT_EQ(after.recorded, before.recorded);  // lifetime, not window

  for (const obs::FlightEvent& event : obs::flight_export().events) {
    EXPECT_NE(who_of(event), "resettest");
  }
}

TEST(FlightRing, RuntimeToggleStopsRecording) {
  obs::set_flight_enabled(false);
  const obs::FlightCounters before = obs::flight_counters();
  obs::flight_record(obs::FlightKind::kSchedPark, 1);
  obs::flight_record_named(obs::FlightKind::kSchedPark, "off", 2);
  EXPECT_EQ(obs::flight_counters().recorded, before.recorded);
  obs::set_flight_enabled(true);
  obs::flight_record_named(obs::FlightKind::kSchedPark, "on", 3);
  EXPECT_EQ(obs::flight_counters().recorded, before.recorded + 1);
}

TEST(FlightRing, RetractTakesBackOnlyTheThreadsNewestMatchingEvent) {
  std::vector<obs::FlightEvent> mine;
  obs::FlightCounters before;
  obs::FlightCounters after;
  std::thread recorder{[&] {
    obs::flight_set_actor("retracttest");
    before = obs::flight_counters();
    obs::flight_record(obs::FlightKind::kChanBlockRead, 41);
    // Newest event, but another channel: stays.
    EXPECT_FALSE(obs::flight_retract(obs::FlightKind::kChanBlockRead, 42));
    EXPECT_TRUE(obs::flight_retract(obs::FlightKind::kChanBlockRead, 41));
    obs::flight_record(obs::FlightKind::kChanBlockRead, 43);
    obs::flight_record(obs::FlightKind::kChanUnblockRead, 43);
    // Not the newest event any more: stays.
    EXPECT_FALSE(obs::flight_retract(obs::FlightKind::kChanBlockRead, 43));
    after = obs::flight_counters();
  }};
  recorder.join();
  for (const obs::FlightEvent& event : obs::flight_export().events) {
    if (who_of(event) == "retracttest") mine.push_back(event);
  }
  ASSERT_EQ(mine.size(), 2u);
  EXPECT_EQ(mine[0].a, 43u);
  EXPECT_EQ(mine[1].kind, raw(obs::FlightKind::kChanUnblockRead));
  // A retracted event still counts as recorded.
  EXPECT_EQ(after.recorded - before.recorded, 3u);
}

// --- Wait-for analysis ------------------------------------------------------

TEST(FlightWaitFor, NamesExactCycle) {
  // ping reads ab (written by pong); pong reads ba (written by ping):
  // the classic two-process read cycle, built from the same events the
  // runtime records (static binds + block edges).
  std::vector<obs::FlightEvent> events;
  events.push_back(make_event(obs::FlightKind::kChanLabel, "ab", 1));
  events.push_back(make_event(obs::FlightKind::kChanLabel, "ba", 2));
  events.push_back(make_event(obs::FlightKind::kChanWriter, "pong", 1));
  events.push_back(make_event(obs::FlightKind::kChanWriter, "ping", 2));
  events.push_back(make_event(obs::FlightKind::kChanBlockRead, "ping", 1));
  events.push_back(make_event(obs::FlightKind::kChanBlockRead, "pong", 2));

  const std::string out = obs::flight_wait_for(events);
  EXPECT_NE(out.find("cycle: ping blocked reading ch1 'ab' -> "
                     "pong blocked reading ch2 'ba' -> ping [cycle]"),
            std::string::npos)
      << out;
}

TEST(FlightWaitFor, UnblockDissolvesTheCycle) {
  std::vector<obs::FlightEvent> events;
  events.push_back(make_event(obs::FlightKind::kChanWriter, "pong", 1));
  events.push_back(make_event(obs::FlightKind::kChanWriter, "ping", 2));
  events.push_back(make_event(obs::FlightKind::kChanBlockRead, "ping", 1));
  events.push_back(make_event(obs::FlightKind::kChanBlockRead, "pong", 2));
  events.push_back(make_event(obs::FlightKind::kChanUnblockRead, "pong", 2));

  const std::string out = obs::flight_wait_for(events);
  EXPECT_EQ(out.find("cycle:"), std::string::npos) << out;
  EXPECT_NE(out.find("stall, not a proven deadlock"), std::string::npos)
      << out;
}

TEST(FlightWaitFor, QuietWindowSaysSo) {
  const std::string out = obs::flight_wait_for({});
  EXPECT_NE(out.find("no blocked processes in the recorded window"),
            std::string::npos);
}

TEST(FlightWaitFor, ConsumerParkedOnTypedChannelIsNamed) {
  // A wait on a live typed ring leaves the same block event a pipe wait
  // does, tagged with the channel's id, so the post-mortem names it.
  obs::flight_reset();
  auto ch = core::make_typed_channel<std::int64_t>(
      {.capacity = 64, .label = "ring"});
  std::jthread consumer{[&] {
    obs::flight_set_actor("typed-sink");
    core::TypedReader<std::int64_t> reader{ch->input()};
    while (reader.get().has_value()) {
    }
  }};
  // blocked_readers() takes the ring mutex, which the consumer releases
  // only once parked -- after recording the block event.
  while (ch->state()->typed->stats().blocked_readers == 0) {
    std::this_thread::yield();
  }
  const std::string report =
      obs::flight_report(obs::flight_export().events, "typed wait");
  EXPECT_NE(report.find("typed-sink blocked reading ch" +
                        std::to_string(ch->state()->id) + " 'ring'"),
            std::string::npos)
      << report;
  ch->output()->close();
}

// --- End-to-end: deadlock dump on disk --------------------------------------

TEST(FlightDump, DeadlockDumpNamesCycleOnDisk) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("dpn-flight-test-" + std::to_string(static_cast<long>(::getpid())));
  fs::create_directories(dir);
  ::setenv("DPN_FLIGHT_DIR", dir.c_str(), 1);
  // Only this run's block events in the window, so the wait-for graph in
  // the dump is exactly this network's.
  obs::flight_reset();

  core::Network network;
  auto ab = network.make_channel({.capacity = 16, .label = "ab"});
  auto ba = network.make_channel({.capacity = 16, .label = "ba"});

  class Echo final : public core::IterativeProcess {
   public:
    Echo(std::string name, std::shared_ptr<core::ChannelInputStream> in,
         std::shared_ptr<core::ChannelOutputStream> out)
        : name_{std::move(name)} {
      track_input(std::move(in));
      track_output(std::move(out));
    }
    std::string type_name() const override { return "test.Echo"; }
    std::string name() const override { return name_; }
    void write_fields(serial::ObjectOutputStream&) const override {}

   protected:
    void step() override {
      io::DataInputStream in{*input(0)};
      io::DataOutputStream out{*output(0)};
      out.write_i64(in.read_i64());  // reads first: both block forever
    }

   private:
    std::string name_;
  };

  network.add(std::make_shared<Echo>("ping", ab->input(), ba->output()));
  network.add(std::make_shared<Echo>("pong", ba->input(), ab->output()));
  network.enable_monitor(core::MonitorOptions{});
  network.run();
  EXPECT_EQ(network.outcome(), core::DeadlockOutcome::kTrueDeadlock);

  // No flags, no opt-in: the monitor's true-deadlock verdict wrote a
  // post-mortem that names the exact blocking cycle.
  const fs::path dump =
      dir / ("dpn-flight-deadlock-" +
             std::to_string(static_cast<long>(::getpid())) + ".txt");
  ASSERT_TRUE(fs::exists(dump)) << dump;
  std::ifstream in{dump};
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  EXPECT_NE(text.find("=== dpn flight recorder dump"), std::string::npos);
  EXPECT_NE(text.find("cycle:"), std::string::npos) << text;
  EXPECT_NE(text.find("ping blocked reading"), std::string::npos) << text;
  EXPECT_NE(text.find("pong blocked reading"), std::string::npos) << text;
  EXPECT_NE(text.find("'ab'"), std::string::npos) << text;
  EXPECT_NE(text.find("'ba'"), std::string::npos) << text;

  ::unsetenv("DPN_FLIGHT_DIR");
  std::error_code ignored;
  fs::remove_all(dir, ignored);
}

TEST(FlightDump, DeadlockDumpNamesEachInstanceAndChannel) {
  // Two instances of one process type: the dump must keep them apart
  // (actor names carry an instance number) and name each one's channel --
  // by label, or as ch<id> when it has none.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("dpn-flight-instances-" + std::to_string(static_cast<long>(::getpid())));
  fs::create_directories(dir);
  ::setenv("DPN_FLIGHT_DIR", dir.c_str(), 1);
  obs::flight_reset();

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
      out.write_i64(in.read_i64());  // reads first: both block forever
    }
  };

  core::Network network;
  auto ab = network.make_channel({.capacity = 16, .label = "ab"});
  auto ba = network.make_channel({.capacity = 16});
  network.add(std::make_shared<Echo>(ab->input(), ba->output()));
  network.add(std::make_shared<Echo>(ba->input(), ab->output()));
  network.enable_monitor(core::MonitorOptions{});
  network.run();
  ASSERT_EQ(network.outcome(), core::DeadlockOutcome::kTrueDeadlock);

  const fs::path dump =
      dir / ("dpn-flight-deadlock-" +
             std::to_string(static_cast<long>(::getpid())) + ".txt");
  ASSERT_TRUE(fs::exists(dump)) << dump;
  std::ifstream in{dump};
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  const std::string wait_for = text.substr(text.find("wait-for:"));
  std::vector<std::string> rows;
  std::istringstream lines{wait_for};
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("  test.Echo#", 0) == 0) rows.push_back(line);
  }
  ASSERT_EQ(rows.size(), 2u) << text;
  EXPECT_NE(rows[0].substr(0, rows[0].find(' ', 2)),
            rows[1].substr(0, rows[1].find(' ', 2)));
  const std::string ab_row =
      "blocked reading ch" + std::to_string(ab->state()->id) + " 'ab' (";
  const std::string ba_row =
      "blocked reading ch" + std::to_string(ba->state()->id) + " (";
  EXPECT_TRUE((rows[0].find(ab_row) != std::string::npos &&
               rows[1].find(ba_row) != std::string::npos) ||
              (rows[1].find(ab_row) != std::string::npos &&
               rows[0].find(ba_row) != std::string::npos))
      << wait_for;

  ::unsetenv("DPN_FLIGHT_DIR");
  std::error_code ignored;
  fs::remove_all(dir, ignored);
}

// --- End-to-end: kill-after-N-bytes leaves the fatal edge -------------------

TEST(FlightFault, KillAfterBytesRecordsFatalTransportEdge) {
  net::ServerSocket server{0};
  std::jthread reader{[&] {
    try {
      net::Socket peer = server.accept();
      std::uint8_t buffer[512];
      while (peer.read_some({buffer, sizeof buffer}) > 0) {
      }
    } catch (const std::exception&) {
    }
  }};

  auto plan = std::make_shared<fault::Plan>();
  plan->kill_after_bytes("127.0.0.1", server.port(), 1000, 1);
  fault::ScopedPlan scoped{std::move(plan)};

  net::Socket socket = net::Socket::connect("127.0.0.1", server.port());
  auto flood = [&] {
    const ByteVector chunk(256, 0xAB);
    for (int i = 0; i < 1000; ++i) {
      socket.write_all({chunk.data(), chunk.size()});
    }
  };
  EXPECT_THROW(flood(), IoError);
  server.close();

  // The window must contain the whole story: the fault arming itself,
  // the dial, and the injected reset as a distinguishable fatal edge.
  bool saw_rst = false;
  bool saw_fault = false;
  bool saw_dial = false;
  for (const obs::FlightEvent& event : obs::flight_export().events) {
    if (event.kind == raw(obs::FlightKind::kNetRst) &&
        who_of(event) == "kill-after") {
      saw_rst = true;
    }
    if (event.kind == raw(obs::FlightKind::kFaultInjected)) saw_fault = true;
    if (event.kind == raw(obs::FlightKind::kNetDial)) saw_dial = true;
  }
  EXPECT_TRUE(saw_rst);
  EXPECT_TRUE(saw_fault);
  EXPECT_TRUE(saw_dial);
}

// --- Crash path: raw ring dump ----------------------------------------------

TEST(FlightCrash, RawRingDumpDecodes) {
  obs::flight_record_named(obs::FlightKind::kDump, "rawtest", 42);

  namespace fs = std::filesystem;
  const fs::path path =
      fs::temp_directory_path() /
      ("dpn-flight-raw-" + std::to_string(static_cast<long>(::getpid())) +
       ".bin");
  const int fd =
      ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0600);
  ASSERT_GE(fd, 0);
  const std::size_t written = obs::flight_write_raw(fd);
  ::close(fd);
  EXPECT_GT(written, 0u);

  std::ifstream in{path, std::ios::binary};
  std::vector<char> raw_bytes{std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>()};
  ASSERT_EQ(raw_bytes.size(), written);

  // The async-signal-safe writer and the normal export share one wire
  // layout; what a debugger pulls out of a core's .bin decodes with the
  // ordinary codec.
  const obs::FlightExport exported = obs::FlightExport::decode(
      {reinterpret_cast<const std::uint8_t*>(raw_bytes.data()),
       raw_bytes.size()});
  EXPECT_GT(exported.recorded, 0u);
  bool saw = false;
  for (const obs::FlightEvent& event : exported.events) {
    if (who_of(event) == "rawtest" && event.a == 42) saw = true;
  }
  EXPECT_TRUE(saw);

  std::error_code ignored;
  fs::remove(path, ignored);
}

// --- Fleet dump over the FLIGHT_DUMP op -------------------------------------

TEST(FleetDump, MergesHostsAndRendersReport) {
  rmi::ComputeServer a{"fleet-a"};
  rmi::ComputeServer b{"fleet-b"};
  auto local = dist::NodeContext::create();
  std::vector<rmi::ServerHandle> servers;
  servers.emplace_back(rmi::Endpoint{"127.0.0.1", a.port()}, local);
  servers.emplace_back(rmi::Endpoint{"127.0.0.1", b.port()}, local);

  const obs::FlightExport from_a = servers[0].flight_export();
  EXPECT_EQ(from_a.node, a.trace_tag());

  const std::string report = rmi::fleet_dump(servers, "test-fleet");
  EXPECT_NE(report.find("=== dpn flight recorder dump: test-fleet"),
            std::string::npos);
  EXPECT_NE(report.find("wait-for:"), std::string::npos);

  a.stop();
  b.stop();
}

// --- Snapshot v7 compat matrix ----------------------------------------------

obs::NetworkSnapshot sample_snapshot() {
  obs::NetworkSnapshot sample;
  sample.live = 2;
  sample.growth_events = 1;
  sample.remote_bytes_sent = 11;
  sample.remote_bytes_received = 13;
  sample.connect_retries = 3;       // v3 plane
  sample.mux_connections = 2;       // v5 plane
  sample.flight_recorded = 77;      // v7 plane
  sample.flight_dropped = 5;
  sample.flight_dumps = 1;
  sample.trace_total_recorded = 123;
  sample.sched_runq.counts[3] = 4;
  sample.sched_runq.count = 4;
  sample.sched_runq.sum_ns = 1000000;
  return sample;
}

TEST(SnapshotV7, CompatMatrixBothDirections) {
  const obs::NetworkSnapshot sample = sample_snapshot();
  for (std::uint8_t writer = 1; writer <= obs::NetworkSnapshot::kVersion;
       ++writer) {
    const ByteVector bytes = sample.encode_as(writer);
    for (std::uint8_t reader = 1; reader <= obs::NetworkSnapshot::kVersion;
         ++reader) {
      SCOPED_TRACE("writer v" + std::to_string(writer) + " reader v" +
                   std::to_string(reader));
      const obs::NetworkSnapshot decoded = obs::NetworkSnapshot::decode_prefix(
          {bytes.data(), bytes.size()}, reader);
      const std::uint8_t common = std::min(writer, reader);
      EXPECT_EQ(decoded.version, common);
      // v1 plane always survives.
      EXPECT_EQ(decoded.live, sample.live);
      EXPECT_EQ(decoded.growth_events, sample.growth_events);
      // v7 plane survives exactly when both sides speak it.
      if (common >= 7) {
        EXPECT_EQ(decoded.flight_recorded, sample.flight_recorded);
        EXPECT_EQ(decoded.flight_dropped, sample.flight_dropped);
        EXPECT_EQ(decoded.flight_dumps, sample.flight_dumps);
        EXPECT_EQ(decoded.trace_total_recorded, sample.trace_total_recorded);
        EXPECT_EQ(decoded.sched_runq.count, sample.sched_runq.count);
        EXPECT_EQ(decoded.sched_runq.sum_ns, sample.sched_runq.sum_ns);
      } else {
        EXPECT_EQ(decoded.flight_recorded, 0u);
        EXPECT_EQ(decoded.flight_dropped, 0u);
        EXPECT_EQ(decoded.flight_dumps, 0u);
        EXPECT_EQ(decoded.trace_total_recorded, 0u);
        EXPECT_TRUE(decoded.sched_runq.empty());
      }
    }
  }
}

TEST(SnapshotV7, MixedVersionMergeDegradesToCommonDenominator) {
  obs::NetworkSnapshot merged = sample_snapshot();
  const ByteVector old_wire = sample_snapshot().encode_as(3);
  obs::NetworkSnapshot old_peer = obs::NetworkSnapshot::decode_prefix(
      {old_wire.data(), old_wire.size()}, obs::NetworkSnapshot::kVersion);
  ASSERT_EQ(old_peer.version, 3);

  merged.merge_from(std::move(old_peer));
  EXPECT_EQ(merged.version, 3);  // fleet speaks the oldest dialect
  EXPECT_EQ(merged.live, 4u);    // v1 counters still sum
  // The v3 peer contributed nothing to the v7 plane; ours is kept.
  EXPECT_EQ(merged.flight_recorded, 77u);
  EXPECT_EQ(merged.sched_runq.count, 4u);
}

TEST(SnapshotV7, SameVersionMergeSumsFlightPlane) {
  obs::NetworkSnapshot merged = sample_snapshot();
  merged.merge_from(sample_snapshot());
  EXPECT_EQ(merged.version, obs::NetworkSnapshot::kVersion);
  EXPECT_EQ(merged.flight_recorded, 154u);
  EXPECT_EQ(merged.flight_dropped, 10u);
  EXPECT_EQ(merged.flight_dumps, 2u);
  EXPECT_EQ(merged.trace_total_recorded, 246u);
  EXPECT_EQ(merged.sched_runq.count, 8u);
}

// --- Tracer lifetime counter ------------------------------------------------

TEST(TracerCounter, TotalRecordedIsMonotonicAcrossEnableCycles) {
  auto& tracer = obs::Tracer::instance();
  const std::uint64_t start = tracer.total_recorded();

  tracer.enable(256);
  tracer.record(obs::TraceKind::kMonitorDeadlock, "x");
  tracer.record(obs::TraceKind::kMonitorDeadlock, "y");
  tracer.disable();
  EXPECT_EQ(tracer.total_recorded(), start + 2);

  tracer.enable(256);
  // A fresh epoch resets recorded() but never the lifetime total.
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_EQ(tracer.total_recorded(), start + 2);
  tracer.record(obs::TraceKind::kMonitorDeadlock, "z");
  tracer.disable();
  EXPECT_EQ(tracer.total_recorded(), start + 3);
}

}  // namespace
}  // namespace dpn
