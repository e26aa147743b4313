#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <latch>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "net/mux.hpp"
#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "sched/scheduler.hpp"
#include "obs/flight.hpp"
#include "support/bytes.hpp"

#include "mux_peer.hpp"

// The mux transport's flow control and flush batching, driven through
// the public mux API (mux against mux) and against a hand-rolled peer
// that reads the wire format of docs/PROTOCOLS.md Section 8 directly.
namespace dpn::net {
namespace {

using namespace test;

/// Holds every reactor() loop inside a posted closure until destroyed:
/// frames queued meanwhile can only leave in the flushes that follow.
class LoopHold {
 public:
  LoopHold() : state_(std::make_shared<State>(reactor().size())) {
    for (std::size_t i = 0; i < reactor().size(); ++i) {
      reactor().at(i).post([state = state_] {
        state->entered.count_down();
        state->release.wait();
      });
    }
    state_->entered.wait();
  }
  ~LoopHold() { state_->release.count_down(); }

  LoopHold(const LoopHold&) = delete;
  LoopHold& operator=(const LoopHold&) = delete;

 private:
  struct State {
    explicit State(std::size_t loops)
        : entered(static_cast<std::ptrdiff_t>(loops)) {}
    std::latch entered;
    std::latch release{1};
  };
  std::shared_ptr<State> state_;
};

std::size_t armed_timers_in_pool() {
  std::size_t sum = 0;
  for (std::size_t i = 0; i < reactor().size(); ++i) {
    sum += reactor().at(i).armed_timers();
  }
  return sum;
}

ByteVector pattern(std::size_t size, std::uint32_t seed) {
  ByteVector bytes(size);
  for (std::size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<std::uint8_t>(seed * 31 + i * 7);
  }
  return bytes;
}

// --- Credit windows --------------------------------------------------------

constexpr int kExchangeMessages = 10000;

std::size_t message_size(int i) {
  return 1 + 2 * static_cast<std::size_t>(i % 6);
}

/// Sends each request and checks its response: the request's bytes, each
/// plus one.
void run_client(Stream& stream, int messages) {
  for (int i = 0; i < messages; ++i) {
    const ByteVector request = pattern(message_size(i), i);
    stream.write_all({request.data(), request.size()});
    ByteVector response(request.size());
    read_exact(stream, {response.data(), response.size()});
    for (std::size_t b = 0; b < request.size(); ++b) {
      ASSERT_EQ(response[b], static_cast<std::uint8_t>(request[b] + 1))
          << "message " << i << " byte " << b;
    }
  }
}

void run_server(Stream& stream, int messages) {
  for (int i = 0; i < messages; ++i) {
    ByteVector message(message_size(i));
    read_exact(stream, {message.data(), message.size()});
    for (std::uint8_t& b : message) ++b;
    stream.write_all({message.data(), message.size()});
  }
}

class MuxWindow
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

// The server's responses travel on a stream whose window is a few bytes,
// smaller than most messages: every message needs several grants, and
// half-window grants must never leave the sender waiting on credit the
// reader is sitting on.
TEST_P(MuxWindow, RequestResponseCompletes) {
  const auto [window, on_fibers] = GetParam();
  auto listener = listen(0);
  DialOptions options;
  options.stream_window = window;
  auto client = dial("127.0.0.1", listener->port(), options);
  auto server = listener->accept();

  if (on_fibers) {
    sched::SchedulerOptions sched_options;
    sched_options.mode = sched::SchedMode::kWorkSteal;
    sched_options.workers = 1;
    sched::Scheduler scheduler{sched_options};
    scheduler.spawn([&] { run_server(*server, kExchangeMessages); },
                    "server");
    scheduler.spawn(
        [&] {
          run_client(*client, kExchangeMessages);
          client->close();  // a failed client must not strand the server
        },
        "client");
    scheduler.shutdown();
  } else {
    std::jthread server_thread{
        [&] { run_server(*server, kExchangeMessages); }};
    run_client(*client, kExchangeMessages);
    client->close();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Windows, MuxWindow,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{3}, std::size_t{7},
                                         std::size_t{1000}),
                       ::testing::Bool()),
    [](const auto& instance) {
      return "w" + std::to_string(std::get<0>(instance.param)) +
             (std::get<1>(instance.param) ? "_fibers" : "_threads");
    });

TEST(MuxCredit, NoCreditFramesBelowHalfWindow) {
  auto listener = listen(0);
  auto client = dial("127.0.0.1", listener->port());
  auto server = listener->accept();
  // 1 000 messages of 1..11 bytes each way: far below half the default
  // window, so no reader ever owes a grant.
  ASSERT_LT(std::size_t{11} * 1000, kStreamWindow / 2);
  const std::uint64_t before = mux_stats().credit_frames_sent;
  std::jthread server_thread{[&] { run_server(*server, 1000); }};
  run_client(*client, 1000);
  server_thread.join();
  EXPECT_EQ(mux_stats().credit_frames_sent - before, 0u);
}

// A peer that ignores flow control cannot make the receiver buffer without
// bound: DATA past the window it was granted kills the connection, and
// the stream's reads fail after draining what arrived in bounds.
TEST(MuxCredit, DataPastTheWindowKillsTheConnection) {
  RawPeer peer{1u << 20};
  constexpr std::size_t kWindow = 64;
  DialOptions options;
  options.stream_window = kWindow;
  // A whole window in one frame is in bounds.
  auto exact = peer.dial(options);
  const std::uint32_t exact_id = peer.next_open();
  const ByteVector full = pattern(kWindow, 1);
  peer.send(exact_id, kData, {full.data(), full.size()});
  peer.send(exact_id, kFin, {});
  ByteVector got(kWindow);
  read_exact(*exact, {got.data(), got.size()});
  EXPECT_EQ(got, full);
  std::uint8_t byte = 0;
  EXPECT_EQ(exact->read_some({&byte, 1}), 0u);

  // Below half the window nothing is granted back, so two frames of
  // window + 1 bytes in all overrun it however the reader keeps up.
  auto overrun = peer.dial(options);
  // Past a CREDIT the first stream may have granted.
  const std::uint32_t overrun_id = peer.next_open();
  const ByteVector first = pattern(kWindow / 2 - 1, 2);
  const ByteVector second = pattern(kWindow / 2 + 2, 3);
  peer.send(overrun_id, kData, {first.data(), first.size()});
  peer.send(overrun_id, kData, {second.data(), second.size()});
  ByteVector received;
  EXPECT_THROW(
      {
        std::uint8_t buffer[256];
        while (received.size() < first.size() + second.size()) {
          const std::size_t n = overrun->read_some({buffer, sizeof buffer});
          if (n == 0) break;
          received.insert(received.end(), buffer, buffer + n);
        }
      },
      NetError);
  EXPECT_EQ(received, first);
}

// --- Flush batching --------------------------------------------------------

TEST(MuxFlush, FinFollowsBatchedDataOnEveryStream) {
  RawPeer peer{1u << 20};
  constexpr std::size_t kStreams = 4;
  constexpr std::size_t kBytes = 40000;  // a few coalesce chunks each
  std::vector<std::shared_ptr<Stream>> streams;
  for (std::size_t s = 0; s < kStreams; ++s) streams.push_back(peer.dial());
  std::vector<std::uint32_t> ids;
  for (std::size_t s = 0; s < kStreams; ++s) {
    ids.push_back(peer.next().stream);  // the OPENs, in dial order
  }
  {
    LoopHold hold;
    for (std::size_t s = 0; s < kStreams; ++s) {
      const ByteVector bytes = pattern(kBytes, static_cast<std::uint32_t>(s));
      streams[s]->write_all({bytes.data(), bytes.size()});
      streams[s]->shutdown_write();
    }
  }
  std::vector<ByteVector> received(kStreams);
  std::vector<bool> fin(kStreams, false);
  std::size_t fins = 0;
  while (fins < kStreams) {
    RawPeer::Frame frame = peer.next_data_or_fin();
    const auto it = std::find(ids.begin(), ids.end(), frame.stream);
    ASSERT_NE(it, ids.end());
    const auto s = static_cast<std::size_t>(it - ids.begin());
    ASSERT_FALSE(fin[s]) << "frame after FIN on stream " << s;
    if (frame.type == kFin) {
      fin[s] = true;
      ++fins;
      EXPECT_EQ(received[s], pattern(kBytes, static_cast<std::uint32_t>(s)));
    } else {
      ASSERT_EQ(frame.type, kData);
      received[s].insert(received[s].end(), frame.payload.begin(),
                         frame.payload.end());
    }
  }
}

TEST(MuxFlush, SmallStreamOvertakesSiblingBacklog) {
  RawPeer peer{16u << 20};
  auto big = peer.dial();
  auto small = peer.dial();
  const std::uint32_t big_id = peer.next().stream;
  const std::uint32_t small_id = peer.next().stream;
  const ByteVector backlog = pattern(std::size_t{4} << 20, 1);
  const std::string hello = "hello";
  {
    LoopHold hold;
    big->write_all({backlog.data(), backlog.size()});
    small->write_all(as_bytes(hello));
  }
  // Both streams were ready before the first flush: the small one gets
  // the second round-robin turn, behind one chunk of the backlog.
  std::size_t big_before = 0;
  for (;;) {
    RawPeer::Frame frame = peer.next_data_or_fin();
    ASSERT_EQ(frame.type, kData);
    if (frame.stream == small_id) {
      EXPECT_EQ(dpn::to_string({frame.payload.data(), frame.payload.size()}),
                hello);
      break;
    }
    ASSERT_EQ(frame.stream, big_id);
    big_before += frame.payload.size();
  }
  EXPECT_LE(big_before, kFlushQuantum);
  std::size_t big_total = big_before;
  while (big_total < backlog.size()) {
    RawPeer::Frame frame = peer.next_data_or_fin();
    ASSERT_EQ(frame.stream, big_id);
    big_total += frame.payload.size();
  }
  EXPECT_EQ(big_total, backlog.size());
}

// Streams dialed and written while the flusher is busy batching a
// sibling's backlog: each OPEN still reaches the wire before its stream's
// first DATA (the peer drops DATA for a stream it has not seen opened).
TEST(MuxFlush, OpenPrecedesDataWhileBatching) {
  RawPeer peer{64u << 20};
  auto big = peer.dial();
  const std::uint32_t big_id = peer.next().stream;
  const ByteVector backlog = pattern(std::size_t{8} << 20, 2);
  constexpr int kLate = 64;
  std::promise<void> read_all;
  std::jthread reader{[&] {
    std::vector<std::uint32_t> opened;
    std::size_t big_bytes = 0;
    int late_data = 0;
    while (big_bytes < backlog.size() || late_data < kLate) {
      RawPeer::Frame frame = peer.next();
      if (frame.type == kOpen) {
        opened.push_back(frame.stream);
      } else if (frame.stream == big_id) {
        big_bytes += frame.payload.size();
      } else if (frame.type == kData) {
        EXPECT_NE(std::find(opened.begin(), opened.end(), frame.stream),
                  opened.end())
            << "DATA before OPEN on stream " << frame.stream;
        ++late_data;
      }
    }
    read_all.set_value();
  }};
  std::jthread writer{
      [&] { big->write_all({backlog.data(), backlog.size()}); }};
  std::vector<std::shared_ptr<Stream>> late;
  for (int i = 0; i < kLate; ++i) {
    late.push_back(peer.dial());
    late.back()->write_all(as_bytes(std::string{"late"}));
  }
  EXPECT_EQ(read_all.get_future().wait_for(std::chrono::seconds{30}),
            std::future_status::ready);
}

TEST(MuxFlush, FramesQueuedWhileLoopsAreHeldShareWrites) {
  RawPeer peer{1u << 20};
  constexpr std::size_t kFrames = 32;
  std::vector<std::shared_ptr<Stream>> streams;
  for (std::size_t i = 0; i < kFrames; ++i) streams.push_back(peer.dial());
  for (std::size_t i = 0; i < kFrames; ++i) peer.next();  // the OPENs
  MuxStats before;
  {
    LoopHold hold;
    before = mux_stats();
    for (std::size_t i = 0; i < kFrames; ++i) {
      const ByteVector bytes =
          pattern(1 + 2 * i, static_cast<std::uint32_t>(i));
      streams[i]->write_all({bytes.data(), bytes.size()});
    }
  }
  for (std::size_t i = 0; i < kFrames; ++i) {
    EXPECT_EQ(peer.next_data_or_fin().type, kData);
  }
  const MuxStats after = mux_stats();
  EXPECT_GE(after.frames_sent - before.frames_sent, kFrames);
  EXPECT_LT(after.socket_writes - before.socket_writes, kFrames);
}

// --- Ready ring: one mark per pending batch --------------------------------

constexpr std::size_t kRaceStreams = 4;

/// Message i of racing stream s: 1..5 bytes of the stream's own pattern.
ByteVector race_message(std::size_t s, int i) {
  return pattern(1 + static_cast<std::size_t>(i % 5),
                 static_cast<std::uint32_t>(s * 7919) +
                     static_cast<std::uint32_t>(i));
}

class MuxReadyRace
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, bool>> {};

// Several streams put many small writes on one connection while its
// flusher drains them; each stream is dialed while its siblings are
// already writing.  On the wire every stream's OPEN precedes its DATA, its
// bytes arrive whole and in order, and its FIN follows them.  A lost ready
// mark would strand queued bytes (the peer then waits forever).  With a
// wide window a stream joins the ready ring far less often than it is
// written to; windows of a few bytes force a credit round trip, and so a
// fresh mark, almost every write.
TEST_P(MuxReadyRace, EveryByteArrivesInOrder) {
  const auto [window, on_fibers] = GetParam();
  const bool wide = window >= (1u << 20);
  // From a window of 1000 bytes on, each stream's rings cycle through
  // their blocks many times.
  const int messages = window >= 1000 ? 4000 : 300;
  RawPeer peer{window};
  const std::uint64_t marks_before = mux_stats().ready_marks;

  std::vector<ByteVector> received(kRaceStreams);
  std::vector<bool> fin(kRaceStreams, false);
  std::promise<void> read_all;
  std::jthread reader;
  const auto read_frames = [&] {
    std::vector<std::uint32_t> opened;  // stream ids in OPEN (= dial) order
    std::size_t fins = 0;
    while (fins < kRaceStreams) {
      const RawPeer::Frame frame = peer.next();
      if (frame.type == kOpen) {
        opened.push_back(frame.stream);
        continue;
      }
      // Keep granting whatever happens, so a failed expectation reports
      // instead of leaving the writers stalled on credit.
      if (frame.type == kData) {
        peer.grant(frame.stream,
                   static_cast<std::uint32_t>(frame.payload.size()));
      }
      const auto it = std::find(opened.begin(), opened.end(), frame.stream);
      if (it == opened.end()) {
        ADD_FAILURE() << "frame before OPEN on stream id " << frame.stream;
        continue;
      }
      const auto s = static_cast<std::size_t>(it - opened.begin());
      EXPECT_FALSE(fin[s]) << "frame after FIN on stream " << s;
      if (frame.type == kFin) {
        fin[s] = true;
        ++fins;
      } else {
        EXPECT_EQ(frame.type, kData);
        received[s].insert(received[s].end(), frame.payload.begin(),
                           frame.payload.end());
      }
    }
    read_all.set_value();
  };
  const auto write_stream = [&](const std::shared_ptr<Stream>& stream,
                                std::size_t s) {
    for (int i = 0; i < messages; ++i) {
      const ByteVector m = race_message(s, i);
      stream->write_all({m.data(), m.size()});
    }
    stream->shutdown_write();
  };

  std::vector<std::shared_ptr<Stream>> streams;
  std::vector<std::jthread> writer_threads;
  sched::SchedulerOptions sched_options;
  sched_options.mode = sched::SchedMode::kWorkSteal;
  sched_options.workers = 1;
  std::optional<sched::Scheduler> scheduler;
  if (on_fibers) scheduler.emplace(sched_options);
  for (std::size_t s = 0; s < kRaceStreams; ++s) {
    streams.push_back(peer.dial());
    if (s == 0) reader = std::jthread{read_frames};
    const auto& stream = streams.back();
    if (on_fibers) {
      scheduler->spawn([&, stream, s] { write_stream(stream, s); },
                       "writer" + std::to_string(s));
    } else {
      writer_threads.emplace_back([&, stream, s] { write_stream(stream, s); });
    }
  }
  if (scheduler) scheduler->shutdown();
  writer_threads.clear();
  ASSERT_EQ(read_all.get_future().wait_for(std::chrono::seconds{60}),
            std::future_status::ready);
  reader.join();

  std::size_t writes = 0;
  for (std::size_t s = 0; s < kRaceStreams; ++s) {
    ByteVector want;
    for (int i = 0; i < messages; ++i) {
      const ByteVector m = race_message(s, i);
      want.insert(want.end(), m.begin(), m.end());
      ++writes;
    }
    EXPECT_TRUE(fin[s]);
    EXPECT_EQ(received[s], want) << "stream " << s;
  }
  const std::uint64_t marks = mux_stats().ready_marks - marks_before;
  EXPECT_GE(marks, kRaceStreams);
  if (wide) {
    EXPECT_LT(marks * 4, writes) << marks << " ready marks for " << writes
                                 << " writes";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Windows, MuxReadyRace,
    ::testing::Combine(::testing::Values(1u, 2u, 7u, 1000u, 1u << 20),
                       ::testing::Bool()),
    [](const auto& instance) {
      return "w" + std::to_string(std::get<0>(instance.param)) +
             (std::get<1>(instance.param) ? "_fibers" : "_threads");
    });

// Writes gathered while every loop is held form one pending batch per
// stream: each stream enters the ready ring exactly once.
TEST(MuxReadyRing, HeldBatchMarksEachStreamOnce) {
  RawPeer peer{1u << 20};
  std::vector<std::shared_ptr<Stream>> streams;
  for (std::size_t s = 0; s < kRaceStreams; ++s) {
    streams.push_back(peer.dial());
  }
  for (std::size_t s = 0; s < kRaceStreams; ++s) peer.next();  // the OPENs
  std::uint64_t marks = 0;
  {
    LoopHold hold;
    const std::uint64_t before = mux_stats().ready_marks;
    for (int i = 0; i < 100; ++i) {
      for (std::size_t s = 0; s < kRaceStreams; ++s) {
        const ByteVector m = race_message(s, i);
        streams[s]->write_all({m.data(), m.size()});
      }
    }
    marks = mux_stats().ready_marks - before;
  }
  EXPECT_EQ(marks, kRaceStreams);
  for (std::size_t s = 0; s < kRaceStreams; ++s) {
    EXPECT_EQ(peer.next_data_or_fin().type, kData);
  }
}

// --- The stream's byte rings: their own races -----------------------------

/// Counts a stream's parks, so a test can act once a caller is parked.
class ParkCounter final : public WaitObserver {
 public:
  void on_park() override { parks_.fetch_add(1); }
  void on_unpark() override { unparks_.fetch_add(1); }

  /// Waits (up to 30 s) until `n` parks happened.
  bool await_parks(int n) const {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds{30};
    while (parks_.load() < n) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds{1});
    }
    return true;
  }
  int parks() const { return parks_.load(); }
  int unparks() const { return unparks_.load(); }

 private:
  std::atomic<int> parks_{0};
  std::atomic<int> unparks_{0};
};

/// Runs `body` on its own thread, or as the only fiber of a one-worker
/// M:N scheduler, and waits for it.
void run_on(bool on_fibers, const std::function<void()>& body) {
  if (!on_fibers) {
    std::jthread{body}.join();
    return;
  }
  sched::SchedulerOptions options;
  options.mode = sched::SchedMode::kWorkSteal;
  options.workers = 1;
  sched::Scheduler scheduler{options};
  scheduler.spawn(body, "ring-test");
  scheduler.shutdown();
}

class MuxRing : public ::testing::TestWithParam<bool> {};

// The reader holds a span of the inbound ring while the loop thread keeps
// appending far past its storage: the ring links new blocks (and recycles
// read ones) under the span, which must stay readable, and every byte
// arrives once, in order.
TEST_P(MuxRing, StorageGrowsWhileTheReaderHoldsASpan) {
  auto listener = listen(0);
  auto client = dial("127.0.0.1", listener->port());
  auto server = listener->accept();
  constexpr std::size_t kBytes = 200000;  // below the default window
  ASSERT_LT(kBytes, kStreamWindow);
  const ByteVector sent = pattern(kBytes, 9);
  std::latch holding{1};
  std::jthread writer{[&] {
    client->write_all({sent.data(), 10});
    holding.wait();
    // Pieces of 1..301 bytes: the outbound ring wraps and grows too.
    for (std::size_t at = 10, i = 0; at < kBytes; ++i) {
      const std::size_t n = std::min(kBytes - at, 1 + (i * 37) % 301);
      client->write_all({sent.data() + at, n});
      at += n;
    }
  }};
  ByteVector received;
  run_on(GetParam(), [&] {
    bool first = true;
    while (received.size() < kBytes) {
      server->read_in_place(
          [&](ByteSpan span) -> std::size_t {
            if (first) {
              first = false;
              holding.count_down();
              // Let the loop append the rest meanwhile.
              std::this_thread::sleep_for(std::chrono::milliseconds{100});
            }
            // Odd takes, so spans end anywhere in the storage.
            const std::size_t n = std::min<std::size_t>(span.size(), 7);
            received.insert(received.end(), span.begin(), span.begin() + n);
            return n;
          },
          /*wait=*/true);
    }
  });
  EXPECT_EQ(received, sent);
}

// close() from another thread wakes a reader parked on an empty stream;
// the read ends (returns 0) instead of hanging.
TEST_P(MuxRing, CloseFromAnotherThreadWakesAParkedReader) {
  auto listener = listen(0);
  auto client = dial("127.0.0.1", listener->port());
  auto server = listener->accept();
  ParkCounter parks;
  server->set_wait_observer(&parks);
  std::optional<std::size_t> got;
  std::jthread closer{[&] {
    if (parks.await_parks(1)) server->close();
  }};
  run_on(GetParam(), [&] {
    std::uint8_t byte = 0;
    got = server->read_some({&byte, 1});
  });
  closer.join();
  server->set_wait_observer(nullptr);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 0u);
  EXPECT_EQ(parks.parks(), parks.unparks());
}

// A writer parked on an exhausted send window throws ChannelClosed when
// the peer's reader shuts down (its RST), instead of waiting for credit.
TEST_P(MuxRing, WriterParkedOnTheWindowThrowsOnPeerRst) {
  auto listener = listen(0);
  DialOptions options;
  options.stream_window = 16;  // the server's send window
  auto client = dial("127.0.0.1", listener->port(), options);
  auto server = listener->accept();
  ParkCounter parks;
  server->set_wait_observer(&parks);
  std::jthread resetter{[&] {
    if (parks.await_parks(1)) client->shutdown_read();
  }};
  bool closed = false;
  run_on(GetParam(), [&] {
    const ByteVector bytes = pattern(100, 4);
    try {
      server->write_all({bytes.data(), bytes.size()});
    } catch (const ChannelClosed&) {
      closed = true;
    }
  });
  resetter.join();
  server->set_wait_observer(nullptr);
  EXPECT_TRUE(closed);
  EXPECT_GE(parks.parks(), 1);
}

// A connection killed mid-stream: the reader drains every byte that
// arrived before the end, in order, then gets NetError -- never a silent
// end-of-stream.
TEST_P(MuxRing, KilledConnectionDrainsThenFails) {
  RawPeer peer{1u << 20};
  auto stream = peer.dial();
  const std::uint32_t id = peer.next().stream;
  constexpr std::size_t kBytes = 100000;  // below the default window
  const ByteVector sent = pattern(kBytes, 5);
  std::jthread killer{[&] {
    for (std::size_t at = 0; at < kBytes; at += 1000) {
      peer.send(id, kData, {sent.data() + at, std::min<std::size_t>(1000, kBytes - at)});
    }
    peer.close();
  }};
  ByteVector received;
  bool lost = false;
  run_on(GetParam(), [&] {
    std::uint8_t buffer[333];
    try {
      for (;;) {
        const std::size_t n = stream->read_some({buffer, sizeof buffer});
        if (n == 0) break;
        received.insert(received.end(), buffer, buffer + n);
      }
    } catch (const NetError&) {
      lost = true;
    }
  });
  EXPECT_TRUE(lost);
  EXPECT_EQ(received, sent);
}

INSTANTIATE_TEST_SUITE_P(Callers, MuxRing, ::testing::Bool(),
                         [](const auto& instance) {
                           return instance.param ? "fibers" : "threads";
                         });

// --- wait_readable ---------------------------------------------------------

TEST(MuxWaitReadable, ZeroTimeoutProbeOnFiberArmsNoTimer) {
  auto listener = listen(0);
  auto client = dial("127.0.0.1", listener->port());
  auto server = listener->accept();

  sched::SchedulerOptions options;
  options.mode = sched::SchedMode::kWorkSteal;
  options.workers = 1;
  sched::Scheduler scheduler{options};
  const std::size_t timers_before = armed_timers_in_pool();
  int readable = 0;
  scheduler.spawn(
      [&] {
        for (int i = 0; i < 1000; ++i) {
          if (server->wait_readable(std::chrono::milliseconds{0})) ++readable;
        }
      },
      "prober");
  scheduler.shutdown();
  EXPECT_EQ(readable, 0);
  EXPECT_EQ(armed_timers_in_pool(), timers_before);
}

// --- Frames: the mux frame codec, the only framing on the wire ------------

/// Reads `stream` to its end: the bytes, then end-of-stream (0).
std::string read_to_end(Stream& stream) {
  std::string got;
  std::uint8_t buffer[7];  // small reads split frames
  for (;;) {
    const std::size_t n = stream.read_some({buffer, sizeof buffer});
    if (n == 0) return got;
    got.append(reinterpret_cast<const char*>(buffer), n);
  }
}

TEST(Frames, DataRoundTrip) {
  RawPeer peer{1u << 20};
  auto stream = peer.dial();
  const std::uint32_t id = peer.next_open();
  peer.send(id, kData, as_bytes(std::string{"hello frames"}));
  peer.send(id, kFin, {});
  EXPECT_EQ(read_to_end(*stream), "hello frames");
  EXPECT_TRUE(stream->end_message().empty());
}

// The receiver sees the same frames however TCP cuts the bytes: headers,
// a traced frame's context and a FIN's end message may each arrive split
// across receives, and whole frames parse straight from a receive.
TEST(Frames, ParserHandlesAnySplit) {
  obs::TraceContext ctx;
  ctx.trace_id = 7;
  ctx.span_id = 8;
  ctx.flags = obs::TraceContext::kSampled;
  const std::string first = "hello frames";
  const std::string second = "traced bytes";
  const std::string end = "redirect";
  for (std::size_t piece : {1u, 2u, 3u, 5u, 9u, 200u}) {
    RawPeer peer{1u << 20};
    auto stream = peer.dial();
    const std::uint32_t id = peer.next_open();
    ByteVector wire = encode_frame(id, kData, as_bytes(first));
    ByteVector traced(obs::TraceContext::kWireSize);
    ctx.encode(traced.data());
    traced.insert(traced.end(), second.begin(), second.end());
    const ByteVector frame2 =
        encode_frame(id, kDataTraced, {traced.data(), traced.size()});
    const ByteVector frame3 = encode_frame(id, kFin, as_bytes(end));
    wire.insert(wire.end(), frame2.begin(), frame2.end());
    wire.insert(wire.end(), frame3.begin(), frame3.end());
    std::jthread sender{[&] {
      for (std::size_t at = 0; at < wire.size(); at += piece) {
        peer.send_raw({wire.data() + at, std::min(piece, wire.size() - at)});
        std::this_thread::sleep_for(std::chrono::microseconds{200});
      }
    }};
    obs::current_trace_context() = {};
    EXPECT_EQ(read_to_end(*stream), first + second) << "piece " << piece;
    EXPECT_EQ(dpn::to_string({stream->end_message().data(),
                              stream->end_message().size()}),
              end)
        << "piece " << piece;
    EXPECT_EQ(obs::current_trace_context().span_id, ctx.span_id)
        << "piece " << piece;
  }
  obs::current_trace_context() = {};
}

// One write is one DATA frame: its bytes are not cut or padded.
TEST(Frames, DataFrameIsOneWriteOperation) {
  RawPeer peer{1u << 20};
  auto stream = peer.dial();
  peer.next_open();
  const ByteVector payload{1, 2, 3, 4, 5};
  stream->write_all({payload.data(), payload.size()});
  const RawPeer::Frame frame = peer.next_data_or_fin();
  EXPECT_EQ(frame.type, kData);
  EXPECT_EQ(frame.payload, payload);
}

// An end of stream and its message are one FIN frame; a window grant is
// one CREDIT frame.
TEST(Frames, ControlFramesAreOneWriteOperation) {
  RawPeer peer{1u << 20};
  auto stream = peer.dial();
  peer.next_open();
  stream->finish_with(as_bytes(std::string{"bye"}));
  const RawPeer::Frame fin = peer.next_data_or_fin();
  EXPECT_EQ(fin.type, kFin);
  EXPECT_EQ(dpn::to_string({fin.payload.data(), fin.payload.size()}), "bye");
  stream->grant_window(4096);
  RawPeer::Frame credit = peer.next();
  EXPECT_EQ(credit.type, kCredit);
  ASSERT_EQ(credit.payload.size(), 4u);
  EXPECT_EQ(get_u32(credit.payload.data()), 4096u);
}

TEST(Frames, EmptyDataFrameElided) {
  RawPeer peer{1u << 20};
  auto stream = peer.dial();
  peer.next_open();
  stream->write_all({});
  const std::uint8_t byte = 9;
  stream->write_all({&byte, 1});
  const RawPeer::Frame frame = peer.next_data_or_fin();
  EXPECT_EQ(frame.type, kData);
  EXPECT_EQ(frame.payload, ByteVector{9});
}

/// Reads `stream` until it throws NetError (true) or ends (false).
bool read_fails(Stream& stream) {
  try {
    read_to_end(stream);
  } catch (const NetError&) {
    return true;
  }
  return false;
}

// A connection that ends inside a frame header took the stream's producer
// with it: the read fails, it does not end quietly.
TEST(Frames, TruncatedHeaderThrows) {
  RawPeer peer{1u << 20};
  auto stream = peer.dial();
  const std::uint32_t id = peer.next_open();
  const ByteVector frame = encode_frame(id, kData, as_bytes(std::string{"x"}));
  peer.send_raw({frame.data(), 3});
  peer.close();
  EXPECT_TRUE(read_fails(*stream));
}

TEST(Frames, TruncatedPayloadThrows) {
  RawPeer peer{1u << 20};
  auto stream = peer.dial();
  const std::uint32_t id = peer.next_open();
  const ByteVector frame =
      encode_frame(id, kData, as_bytes(std::string{"full payload"}));
  peer.send_raw({frame.data(), frame.size() - 3});
  peer.close();
  EXPECT_TRUE(read_fails(*stream));
}

// A length past the frame bound kills the connection at the header, with
// the peer still connected: nothing is buffered for it.
TEST(Frames, OversizedFrameRejected) {
  RawPeer peer{1u << 20};
  auto stream = peer.dial();
  const std::uint32_t id = peer.next_open();
  std::uint8_t header[9];
  put_u32(header, id);
  header[4] = kData;
  put_u32(header + 5, 0xffffffffu);
  peer.send_raw({header, sizeof header});
  EXPECT_TRUE(read_fails(*stream));
}

TEST(Frames, ManyFramesInOrder) {
  RawPeer peer{1u << 20};
  auto stream = peer.dial();
  const std::uint32_t id = peer.next_open();
  std::string want;
  for (int i = 0; i < 50; ++i) {
    const std::string payload(static_cast<std::size_t>(i) + 1,
                              static_cast<char>('a' + i % 26));
    peer.send(id, kData, as_bytes(payload));
    want += payload;
  }
  peer.send(id, kFin, {});
  EXPECT_EQ(read_to_end(*stream), want);
}

TEST(Frames, OverSocketEndToEnd) {
  auto listener = listen(0);
  auto client = dial("127.0.0.1", listener->port());
  auto server = listener->accept();
  client->write_all(as_bytes(std::string{"one"}));
  client->write_all(as_bytes(std::string{"two"}));
  client->finish_with(as_bytes(std::string{"end"}));
  EXPECT_EQ(read_to_end(*server), "onetwo");
  const ByteVector end = server->end_message();
  EXPECT_EQ(dpn::to_string({end.data(), end.size()}), "end");
}

// --- Handshake: the connection preface of docs/PROTOCOLS.md Section 8 -----

/// A TCP peer that accepts one connection and writes `reply` (may be
/// empty: a silent peer), then holds the socket until destroyed.
class RawAcceptor {
 public:
  explicit RawAcceptor(ByteVector reply = {})
      : accepted_(std::async(std::launch::async,
                             [this, reply = std::move(reply)] {
                               Socket socket = server_.accept();
                               if (!reply.empty()) {
                                 socket.write_all({reply.data(), reply.size()});
                               }
                               return socket;
                             })) {}
  ~RawAcceptor() {
    server_.close();  // ends an accept that never got its connection
    try {
      accepted_.get();
    } catch (const NetError&) {
    }
  }

  RawAcceptor(const RawAcceptor&) = delete;
  RawAcceptor& operator=(const RawAcceptor&) = delete;

  std::uint16_t port() const { return server_.port(); }

 private:
  ServerSocket server_{0};
  std::future<Socket> accepted_;
};

TEST(MuxHandshake, DialToSilentAcceptorFailsWithinItsTimeout) {
  RawAcceptor silent;
  DialOptions options;
  options.timeout = std::chrono::milliseconds{300};
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(dial("127.0.0.1", silent.port(), options), NetError);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds{5});
}

TEST(MuxHandshake, BadPrefaceFailsTheDial) {
  const std::string reply = "HTTP/1.1 400 Bad Request\r\n";
  RawAcceptor http{ByteVector{reply.begin(), reply.end()}};
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(dial("127.0.0.1", http.port()), NetError);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds{5});
}

TEST(MuxHandshake, FiberDialingASilentPeerLeavesTheWorkerFree) {
  RawAcceptor silent;
  sched::SchedulerOptions options;
  options.mode = sched::SchedMode::kWorkSteal;
  options.workers = 1;
  sched::Scheduler scheduler{options};

  std::atomic<bool> dialing{false};
  std::atomic<bool> dial_ended{false};
  std::promise<bool> dial_failed;
  scheduler.spawn(
      [&] {
        DialOptions dial_options;
        dial_options.timeout = std::chrono::milliseconds{1000};
        dialing.store(true);
        bool failed = false;
        try {
          dial("127.0.0.1", silent.port(), dial_options);
        } catch (const NetError&) {
          failed = true;
        }
        dial_ended.store(true);
        dial_failed.set_value(failed);
      },
      "dialer");
  while (!dialing.load()) std::this_thread::yield();
  // The only worker runs the dialer now: the bystander runs before the
  // dial fails only if the dial parks its fiber.
  std::promise<bool> bystander;
  scheduler.spawn([&] { bystander.set_value(dial_ended.load()); },
                  "bystander");
  auto ran = bystander.get_future();
  ASSERT_EQ(ran.wait_for(std::chrono::seconds{5}), std::future_status::ready);
  EXPECT_FALSE(ran.get());
  auto failed = dial_failed.get_future();
  ASSERT_EQ(failed.wait_for(std::chrono::seconds{5}),
            std::future_status::ready);
  EXPECT_TRUE(failed.get());
  scheduler.shutdown();
}

TEST(MuxHandshake, ConcurrentDialsShareOneConnection) {
  auto listener = listen(0);
  const std::uint64_t before = mux_stats().connections;
  constexpr int kDialers = 8;
  std::latch go{kDialers};
  std::vector<std::shared_ptr<Stream>> streams(kDialers);
  {
    std::vector<std::jthread> dialers;
    for (int i = 0; i < kDialers; ++i) {
      dialers.emplace_back([&, i] {
        go.arrive_and_wait();
        streams[static_cast<std::size_t>(i)] =
            dial("127.0.0.1", listener->port());
      });
    }
  }
  // Every stream's OPEN arrived, so the accepted side has started too.
  std::vector<std::shared_ptr<Stream>> accepted;
  for (int i = 0; i < kDialers; ++i) accepted.push_back(listener->accept());
  for (const auto& stream : streams) ASSERT_NE(stream, nullptr);
  EXPECT_EQ(mux_stats().connections, before + 2);
}

TEST(MuxHandshake, UnreachableHostDoesNotBlockAHealthyDial) {
  std::uint16_t unreachable = 0;
  {
    ServerSocket closed{0};  // a port nothing listens on once it closes
    unreachable = closed.port();
  }
  auto plan = std::make_shared<fault::Plan>();
  plan->delay_connect("127.0.0.1", unreachable, std::chrono::seconds{2});
  fault::ScopedPlan scoped{std::move(plan)};
  auto listener = listen(0);

  std::atomic<bool> held{false};
  std::jthread stuck{[&] {
    DialOptions options;
    options.timeout = std::chrono::seconds{5};
    held.store(true);
    try {
      dial("127.0.0.1", unreachable, options);
    } catch (const NetError&) {
    }
  }};
  while (!held.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds{50});
  const auto start = std::chrono::steady_clock::now();
  auto stream = dial("127.0.0.1", listener->port());
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds{500});
  ASSERT_NE(stream, nullptr);
}

}  // namespace
}  // namespace dpn::net
