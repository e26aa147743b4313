#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
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
#include "net/mux.hpp"
#include "net/socket.hpp"
#include "obs/flight.hpp"
#include "obs/snapshot.hpp"
#include "rmi/compute_server.hpp"
#include "sched/queue.hpp"
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

// The crash handler reads DPN_FLIGHT_DIR once, when it is first
// installed, and the dump tests below point the variable elsewhere for a
// while: install it before any test runs and keep the directory it took.
const std::filesystem::path g_crash_dir = [] {
  obs::flight_install_crash_handler();
  const char* env = std::getenv("DPN_FLIGHT_DIR");
  return std::filesystem::path{env != nullptr && env[0] != '\0' ? env : "."};
}();

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
  // Deterministic window: exactly one ring's worth (2048) of the newest
  // events, in recording order (export is sorted stably by timestamp,
  // and a single ring is walked oldest-first).  The ring may be one an
  // exited thread handed back, so `dropped` may also count that thread's
  // overwritten events.
  ASSERT_EQ(mine.size(), 2048u);
  EXPECT_GE(dropped, kEvents - mine.size());
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
  obs::set_flight_level(obs::FlightLevel::kOff);
  const obs::FlightCounters before = obs::flight_counters();
  obs::flight_record(obs::FlightKind::kSchedPark, 1);
  obs::flight_record_named(obs::FlightKind::kSchedPark, "off", 2);
  EXPECT_EQ(obs::flight_counters().recorded, before.recorded);
  obs::set_flight_level(obs::FlightLevel::kPostMortem);
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

TEST(FlightRing, ThreadsStartedOneAfterAnotherRecordPastTheRegistry) {
  // A thread that exits hands its ring back, so threads started one after
  // another (a server's thread per request) keep recording past the
  // registry's 256 rings.
  constexpr std::uint64_t kThreads = 300;
  obs::set_flight_level(obs::FlightLevel::kTokens);
  for (std::uint64_t i = 0; i < kThreads; ++i) {
    std::thread{[i] {
      DPN_FLIGHT_TOKEN(obs::FlightKind::kTaskDispatch, "manythreads", i);
    }}.join();
  }
  obs::set_flight_level(obs::FlightLevel::kPostMortem);
  std::vector<bool> seen(kThreads, false);
  for (const obs::FlightEvent& event : obs::flight_export().events) {
    if (who_of(event) == "manythreads" && event.a < kThreads) {
      seen[event.a] = true;
    }
  }
  EXPECT_TRUE(seen.back());
  EXPECT_EQ(std::count(seen.begin(), seen.end(), true),
            static_cast<std::ptrdiff_t>(kThreads));
}

TEST(FlightRing, RetractInAHandedBackRingLeavesNoTrace) {
  // The first thread wraps its ring and exits; the next one takes that
  // ring over.  Its retract gives back the slot that held the ring's
  // oldest event, which must leave the window, not show the event just
  // taken back.
  std::thread{[] {
    obs::flight_set_actor("wrapowner");
    for (std::uint64_t i = 0; i < 5000; ++i) {
      obs::flight_record(obs::FlightKind::kSchedPark, i);
    }
  }}.join();
  bool retracted = false;
  std::thread{[&retracted] {
    obs::flight_set_actor("nextowner");
    obs::flight_record(obs::FlightKind::kChanBlockRead, 7);
    retracted = obs::flight_retract(obs::FlightKind::kChanBlockRead, 7);
  }}.join();
  EXPECT_TRUE(retracted);
  for (const obs::FlightEvent& event : obs::flight_export().events) {
    EXPECT_NE(who_of(event), "nextowner");
  }
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

TEST(FlightWaitFor, ProcessParkedOnBlockingQueueIsNamed) {
  // A pop on an empty BlockingQueue (the Turnstile's arrivals) records a
  // block event naming the process, so a post-mortem names a process
  // stalled there.
  obs::flight_reset();
  sched::BlockingQueue<int> queue;
  std::jthread consumer{[&] {
    obs::flight_set_actor("turnstile");
    (void)queue.pop();
  }};
  const auto parked = [] {
    for (const obs::FlightEvent& ev : obs::flight_export().events) {
      if (ev.kind == raw(obs::FlightKind::kQueueWait) &&
          who_of(ev) == "turnstile") {
        return true;
      }
    }
    return false;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds{20};
  while (!parked() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  const std::string report =
      obs::flight_report(obs::flight_export().events, "queue wait");
  EXPECT_NE(report.find("turnstile blocked popping an empty queue"),
            std::string::npos)
      << report;
  queue.push(1);
}

TEST(FlightWaitFor, ProcessParkedDialingIsNamed) {
  // A dial parks its caller until the peer's mux preface arrives; a peer
  // that accepts and never speaks leaves the process named as dialing.
  obs::flight_reset();
  net::ServerSocket silent{0};
  std::jthread dialer{[&] {
    obs::flight_set_actor("dialer");
    net::DialOptions options;
    options.timeout = std::chrono::seconds{20};
    EXPECT_THROW(net::dial("127.0.0.1", silent.port(), options), NetError);
  }};
  const auto parked = [] {
    for (const obs::FlightEvent& ev : obs::flight_export().events) {
      if (ev.kind == raw(obs::FlightKind::kNetDialWait) &&
          who_of(ev) == "dialer") {
        return true;
      }
    }
    return false;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds{20};
  while (!parked() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  const std::string report =
      obs::flight_report(obs::flight_export().events, "dial wait");
  EXPECT_NE(report.find("dialer blocked dialing a mux connection (port " +
                        std::to_string(silent.port()) + ")"),
            std::string::npos)
      << report;
  silent.close();  // resets the pending connection: the dial fails
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

TEST(FlightCrash, SigtermLeavesAPostMortem) {
  // A timeout's SIGTERM is handled like a crash: the raw rings land in
  // DPN_FLIGHT_DIR and the process still dies of SIGTERM.
  if (const char* off = std::getenv("DPN_FLIGHT_CRASH");
      off != nullptr && off[0] == '0') {
    GTEST_SKIP() << "DPN_FLIGHT_CRASH=0 opts out of the handler";
  }
  namespace fs = std::filesystem;
  const fs::path dir = g_crash_dir;
  // Recorded before the fork: the child's copy of the rings holds it.
  obs::flight_record_named(obs::FlightKind::kDump, "termtest", 77);

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::raise(SIGTERM);
    ::_exit(3);  // not reached
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status)) << status;
  EXPECT_EQ(WTERMSIG(status), SIGTERM);

  const fs::path dump =
      dir / ("dpn-flight-crash-" + std::to_string(static_cast<long>(child)) +
             ".bin");
  ASSERT_TRUE(fs::exists(dump)) << dump;
  std::ifstream in{dump, std::ios::binary};
  const std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>()};
  const obs::FlightExport exported = obs::FlightExport::decode(
      {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
  bool saw = false;
  for (const obs::FlightEvent& event : exported.events) {
    if (who_of(event) == "termtest" && event.a == 77) saw = true;
  }
  EXPECT_TRUE(saw);

  std::error_code ignored;
  fs::remove(dump, ignored);
}

TEST(FlightCrash, DpnTopRendersRawDump) {
  // The crash dump's reader: `dpn_top --flight=FILE` prints the same
  // post-mortem flight_report gives a live window.
  obs::flight_record_named(obs::FlightKind::kDump, "toptest", 5);
  namespace fs = std::filesystem;
  const fs::path path =
      fs::temp_directory_path() /
      ("dpn-flight-top-" + std::to_string(static_cast<long>(::getpid())) +
       ".bin");
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0600);
  ASSERT_GE(fd, 0);
  EXPECT_GT(obs::flight_write_raw(fd), 0u);
  ::close(fd);

  const std::string command =
      std::string{DPN_TOP_PATH} + " --flight=" + path.string();
  std::FILE* pipe = ::popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char chunk[4096];
  for (std::size_t n; (n = std::fread(chunk, 1, sizeof chunk, pipe)) > 0;) {
    output.append(chunk, n);
  }
  EXPECT_EQ(::pclose(pipe), 0) << output;
  EXPECT_NE(output.find("=== dpn flight recorder dump"), std::string::npos)
      << output;
  EXPECT_NE(output.find("[toptest] flight.dump a=5"), std::string::npos)
      << output;
  EXPECT_NE(output.find("wait-for:"), std::string::npos) << output;

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

// --- Levels -------------------------------------------------------------------

TEST(FlightLevels, DefaultRunRecordsNoTokenKinds) {
  // A pipeline run at the default level leaves the post-mortem events it
  // always did and not one token-level kind; the same run at kTokens
  // leaves both.
  const auto run_pipeline = [] {
    core::Network network;
    auto ch = network.make_channel({.capacity = 16, .label = "levels"});
    class Source final : public core::IterativeProcess {
     public:
      explicit Source(std::shared_ptr<core::ChannelOutputStream> out)
          : core::IterativeProcess(64) {
        track_output(std::move(out));
      }
      std::string type_name() const override { return "test.Source"; }
      void write_fields(serial::ObjectOutputStream&) const override {}

     protected:
      void step() override {
        io::DataOutputStream{*output(0)}.write_i64(7);
      }
    };
    class Sink final : public core::IterativeProcess {
     public:
      explicit Sink(std::shared_ptr<core::ChannelInputStream> in) {
        track_input(std::move(in));
      }
      std::string type_name() const override { return "test.Sink"; }
      void write_fields(serial::ObjectOutputStream&) const override {}

     protected:
      void step() override { io::DataInputStream{*input(0)}.read_i64(); }
    };
    network.add(std::make_shared<Source>(ch->output()));
    network.add(std::make_shared<Sink>(ch->input()));
    network.run();
    std::size_t token_events = 0;
    std::size_t events = 0;
    for (const obs::FlightEvent& event : obs::flight_export().events) {
      ++events;
      token_events += obs::is_token_kind(
          static_cast<obs::FlightKind>(event.kind));
    }
    return std::pair{events, token_events};
  };

  ASSERT_EQ(obs::flight_level(), obs::FlightLevel::kPostMortem);
  obs::flight_reset();
  const auto [events, token_events] = run_pipeline();
  EXPECT_GT(events, 0u);  // the topology events of Network::start()
  EXPECT_EQ(token_events, 0u);

  obs::flight_reset();
  obs::set_flight_level(obs::FlightLevel::kTokens);
  const auto [traced_events, traced_tokens] = run_pipeline();
  obs::set_flight_level(obs::FlightLevel::kPostMortem);
  EXPECT_GT(traced_tokens, 128u);  // 64 writes and 64 reads at least
  EXPECT_GT(traced_events, traced_tokens);
}

TEST(FlightLevels, ChromeJsonDrawsFlowArrowsForSpanKinds) {
  std::vector<obs::FlightEvent> events;
  events.push_back(make_event(obs::FlightKind::kNetSend, "data", 99, 8, 5000));
  events.back().node = 0;
  events.push_back(make_event(obs::FlightKind::kNetRecv, "data", 99, 8, 7000));
  events.back().node = 2;
  events.push_back(make_event(obs::FlightKind::kChanBlockRead, "p\"q", 1));
  const std::string json =
      obs::flight_chrome_json({.recorded = 10, .dropped = 3, .events = events});
  EXPECT_NE(json.find("\"dpn host 0 (local)\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"dpn host 2\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"net.send\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\",\"id\":99"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"f\",\"bp\":\"e\",\"id\":99"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"who\":\"p\\\"q\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"metadata\":{\"recorded\":10,\"dropped\":3}"),
            std::string::npos)
      << json;
}

// --- Snapshot: one version ------------------------------------------------------

obs::NetworkSnapshot sample_snapshot() {
  obs::NetworkSnapshot sample;
  sample.live = 2;
  sample.growth_events = 1;
  sample.remote_bytes_sent = 11;
  sample.remote_bytes_received = 13;
  sample.connect_retries = 3;
  sample.mux_connections = 2;
  sample.flight_recorded = 77;
  sample.flight_dropped = 5;
  sample.flight_dumps = 1;
  sample.sched_runq.counts[3] = 4;
  sample.sched_runq.count = 4;
  sample.sched_runq.sum_ns = 1000000;
  return sample;
}

TEST(SnapshotV7, CompatMatrixBothDirections) {
  // There is one layout: an older writer's version byte and a newer
  // one's are both rejected, with a message naming both versions.
  const obs::NetworkSnapshot sample = sample_snapshot();
  ByteVector bytes = sample.encode();
  ASSERT_EQ(bytes[0], obs::NetworkSnapshot::kVersion);
  const obs::NetworkSnapshot same =
      obs::NetworkSnapshot::decode({bytes.data(), bytes.size()});
  EXPECT_EQ(same.live, sample.live);
  EXPECT_EQ(same.flight_recorded, sample.flight_recorded);
  EXPECT_EQ(same.flight_dropped, sample.flight_dropped);
  EXPECT_EQ(same.flight_dumps, sample.flight_dumps);
  EXPECT_EQ(same.sched_runq.count, sample.sched_runq.count);
  EXPECT_EQ(same.sched_runq.sum_ns, sample.sched_runq.sum_ns);
  for (unsigned version = 0; version < 256; ++version) {
    if (version == obs::NetworkSnapshot::kVersion) continue;
    SCOPED_TRACE("version byte " + std::to_string(version));
    bytes[0] = static_cast<std::uint8_t>(version);
    try {
      (void)obs::NetworkSnapshot::decode({bytes.data(), bytes.size()});
      ADD_FAILURE() << "decoded";
    } catch (const SerializationError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("version " + std::to_string(version)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("reads version " +
                          std::to_string(obs::NetworkSnapshot::kVersion)),
                std::string::npos)
          << what;
    }
  }
}

TEST(SnapshotV7, SameVersionMergeSumsFlightPlane) {
  obs::NetworkSnapshot merged = sample_snapshot();
  merged.merge_from(sample_snapshot());
  EXPECT_EQ(merged.flight_recorded, 154u);
  EXPECT_EQ(merged.flight_dropped, 10u);
  EXPECT_EQ(merged.flight_dumps, 2u);
  EXPECT_EQ(merged.sched_runq.count, 8u);
}

// --- Lifetime counters ------------------------------------------------------

TEST(TracerCounter, TotalRecordedIsMonotonicAcrossEnableCycles) {
  // The token level goes on and off; the recorded total never resets.
  std::thread{[] {
    const std::uint64_t start = obs::flight_counters().recorded;
    obs::set_flight_level(obs::FlightLevel::kTokens);
    DPN_FLIGHT_TOKEN(obs::FlightKind::kMigrate, "x");
    DPN_FLIGHT_TOKEN(obs::FlightKind::kMigrate, "y");
    obs::set_flight_level(obs::FlightLevel::kPostMortem);
    EXPECT_EQ(obs::flight_counters().recorded, start + 2);
    DPN_FLIGHT_TOKEN(obs::FlightKind::kMigrate, "off");
    obs::flight_reset();
    EXPECT_EQ(obs::flight_counters().recorded, start + 2);
    obs::set_flight_level(obs::FlightLevel::kTokens);
    DPN_FLIGHT_TOKEN(obs::FlightKind::kMigrate, "z");
    obs::set_flight_level(obs::FlightLevel::kPostMortem);
    EXPECT_EQ(obs::flight_counters().recorded, start + 3);
  }}.join();
}

}  // namespace
}  // namespace dpn
