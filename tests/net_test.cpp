#include <gtest/gtest.h>

#include <future>
#include <thread>

#include "net/event_loop.hpp"
#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "net/mux.hpp"
#include "sched/scheduler.hpp"

namespace dpn::net {
namespace {

TEST(Socket, ConnectAndEcho) {
  ServerSocket server{0};
  std::jthread echo{[&] {
    Socket peer = server.accept();
    ByteVector buffer(64);
    const std::size_t n = peer.read_some({buffer.data(), buffer.size()});
    peer.write_all({buffer.data(), n});
  }};
  Socket client = Socket::connect("127.0.0.1", server.port());
  const std::string message = "ping";
  client.write_all(as_bytes(message));
  ByteVector reply(4);
  std::size_t got = 0;
  while (got < reply.size()) {
    got += client.read_some({reply.data() + got, reply.size() - got});
  }
  EXPECT_EQ(dpn::to_string(ByteSpan{reply.data(), reply.size()}), message);
}

TEST(Socket, PeerShutdownDeliversEof) {
  ServerSocket server{0};
  std::jthread closer{[&] {
    Socket peer = server.accept();
    peer.shutdown_write();
    // Keep the socket alive briefly so the client reads a clean EOF.
    std::this_thread::sleep_for(std::chrono::milliseconds{20});
  }};
  Socket client = Socket::connect("127.0.0.1", server.port());
  std::uint8_t b = 0;
  EXPECT_EQ(client.read_some({&b, 1}), 0u);
}

TEST(Socket, WriteToClosedPeerThrowsChannelClosed) {
  ServerSocket server{0};
  std::jthread closer{[&] {
    Socket peer = server.accept();
    peer.close();
  }};
  Socket client = Socket::connect("127.0.0.1", server.port());
  std::this_thread::sleep_for(std::chrono::milliseconds{20});
  const ByteVector junk(8192, 1);
  // The first write may be buffered; keep writing until the RST lands.
  EXPECT_THROW(
      {
        for (int i = 0; i < 100; ++i) {
          client.write_all({junk.data(), junk.size()});
        }
      },
      ChannelClosed);
}

TEST(Socket, CloseWakesAccept) {
  ServerSocket server{0};
  std::jthread closer{[&] {
    std::this_thread::sleep_for(std::chrono::milliseconds{10});
    server.close();
  }};
  EXPECT_THROW(server.accept(), NetError);
}

TEST(Socket, ConnectRefusedThrows) {
  // Port 1 is never listening on a sane test host.
  EXPECT_THROW(Socket::connect("127.0.0.1", 1), NetError);
}

TEST(Socket, BadAddressThrows) {
  EXPECT_THROW(Socket::connect("not-an-address", 80), NetError);
}

TEST(Socket, LocalhostNameResolves) {
  ServerSocket server{0};
  std::jthread acceptor{[&] { Socket peer = server.accept(); }};
  EXPECT_NO_THROW(Socket::connect("localhost", server.port()));
}

TEST(Socket, EphemeralPortAssigned) {
  ServerSocket server{0};
  EXPECT_GT(server.port(), 0);
}

// --- Event-loop timer wheel --------------------------------------------------

TEST(EventLoopTimers, FiresAfterDelay) {
  EventLoop loop;
  std::promise<void> fired;
  const auto armed_at = std::chrono::steady_clock::now();
  loop.post([&] {
    loop.add_timer(std::chrono::milliseconds{50}, [&] { fired.set_value(); });
  });
  auto done = fired.get_future();
  ASSERT_EQ(done.wait_for(std::chrono::seconds{5}), std::future_status::ready);
  EXPECT_GE(std::chrono::steady_clock::now() - armed_at,
            std::chrono::milliseconds{40});
}

TEST(EventLoopTimers, ArmedAfterIdleGapFiresAfterItsDelay) {
  EventLoop loop;
  // Let the loop go fully idle (no timers armed, epoll_wait parked) for
  // longer than the timer delay.  Regression: the wheel anchor went stale
  // across the idle gap, and the end-of-iteration catch-up swept past the
  // freshly armed entry's slot, firing it instantly -- the "first mux
  // accept after an idle period dies with a preface timeout at t=0" bug.
  std::this_thread::sleep_for(std::chrono::milliseconds{250});
  std::promise<void> fired;
  const auto armed_at = std::chrono::steady_clock::now();
  loop.post([&] {
    loop.add_timer(std::chrono::milliseconds{100}, [&] { fired.set_value(); });
  });
  auto done = fired.get_future();
  ASSERT_EQ(done.wait_for(std::chrono::seconds{5}), std::future_status::ready);
  EXPECT_GE(std::chrono::steady_clock::now() - armed_at,
            std::chrono::milliseconds{90});
}

TEST(EventLoopPosts, PostDuringDrainIsNotLost) {
  EventLoop loop;
  // Regression: the loop read (reset) its wake eventfd AFTER draining the
  // post queue, so a post() landing while earlier posted functions ran
  // had its wake consumed with the function still queued, and an idle
  // loop re-entered an unbounded epoll_wait without ever running it.
  // One process-wide loop was re-woken by unrelated connections fast
  // enough to hide this; a quiet per-connection loop in the reactor pool
  // slept forever -- the "mux endpoint stops flushing credits under
  // DPN_NET_LOOPS>1" hang.  Holding the first posted function open while
  // posting a second lands the second post exactly in that window.
  std::promise<void> started, release, second_ran;
  loop.post([&] {
    started.set_value();
    release.get_future().wait();
  });
  started.get_future().wait();  // the loop is now mid-drain
  loop.post([&] { second_ran.set_value(); });
  release.set_value();
  ASSERT_EQ(second_ran.get_future().wait_for(std::chrono::seconds{5}),
            std::future_status::ready);
}

TEST(EventLoopTimers, CancelledTimerNeverFires) {
  EventLoop loop;
  std::atomic<bool> fired{false};
  std::promise<void> cancelled;
  loop.post([&] {
    const auto id = loop.add_timer(std::chrono::milliseconds{30},
                                   [&] { fired.store(true); });
    loop.cancel_timer(id);
    cancelled.set_value();
  });
  cancelled.get_future().wait();
  std::this_thread::sleep_for(std::chrono::milliseconds{80});
  EXPECT_FALSE(fired.load());
  EXPECT_EQ(loop.armed_timers(), 0u);
}

// --- Per-core reactor pool ---------------------------------------------------

TEST(Reactor, PoolIsLazyAndRoundRobin) {
  EventLoopPool pool{4};
  EXPECT_EQ(pool.live_loops(), 0u);  // no loop (or thread) until first use
  EventLoop& a = pool.next();
  EXPECT_EQ(pool.live_loops(), 1u);
  EventLoop& b = pool.next();
  EXPECT_NE(&a, &b);  // round-robin spreads waiters across loops
  EXPECT_EQ(pool.live_loops(), 2u);
}

// A fiber's remote reads and writes run on the reactor's mux streams,
// never in a blocking socket call: one parked in a stream read, or on a
// stream's exhausted window, leaves its worker to the other fibers.
TEST(Reactor, FiberParkedInSocketReadDoesNotStallWorker) {
  auto listener = listen(0);
  auto client = dial("127.0.0.1", listener->port());
  auto peer = listener->accept();

  sched::SchedulerOptions options;
  options.mode = sched::SchedMode::kWorkSteal;
  options.workers = 1;
  sched::Scheduler scheduler{options};

  std::promise<std::size_t> read_result;
  std::promise<void> bystander_ran;
  scheduler.spawn(
      [&] {
        std::uint8_t b = 0;
        read_result.set_value(client->read_some({&b, 1}));
      },
      "parked-reader");
  scheduler.spawn([&] { bystander_ran.set_value(); }, "bystander");

  // With a single worker the bystander only runs if the blocked read
  // parks its fiber instead of wedging the worker.
  auto ran = bystander_ran.get_future();
  ASSERT_EQ(ran.wait_for(std::chrono::seconds{5}), std::future_status::ready);

  const std::uint8_t token = 42;
  peer->write_all({&token, 1});
  auto result = read_result.get_future();
  ASSERT_EQ(result.wait_for(std::chrono::seconds{5}),
            std::future_status::ready);
  EXPECT_EQ(result.get(), 1u);
  scheduler.shutdown();
}

TEST(Reactor, FiberParkedInSocketWriteDoesNotStallWorker) {
  auto listener = listen(0);
  DialOptions small;
  small.stream_window = 4096;  // a modest burst exhausts it
  auto client = dial("127.0.0.1", listener->port(), small);
  auto peer = listener->accept();

  sched::SchedulerOptions options;
  options.mode = sched::SchedMode::kWorkSteal;
  options.workers = 1;
  sched::Scheduler scheduler{options};

  std::promise<void> write_done;
  std::promise<void> bystander_ran;
  const ByteVector burst(1u << 20, 0xAB);
  scheduler.spawn(
      [&] {
        client->write_all({burst.data(), burst.size()});
        write_done.set_value();
      },
      "parked-writer");
  scheduler.spawn([&] { bystander_ran.set_value(); }, "bystander");

  // The write-side twin of FiberParkedInSocketReadDoesNotStallWorker:
  // the bystander only runs if the exhausted window parks the writing
  // fiber instead of wedging the worker.
  auto ran = bystander_ran.get_future();
  ASSERT_EQ(ran.wait_for(std::chrono::seconds{5}), std::future_status::ready);

  std::jthread drainer{[&] {
    ByteVector sink(1u << 16);
    std::size_t total = 0;
    while (total < burst.size()) {
      const std::size_t n = peer->read_some({sink.data(), sink.size()});
      if (n == 0) break;
      total += n;
    }
  }};
  auto done = write_done.get_future();
  ASSERT_EQ(done.wait_for(std::chrono::seconds{10}),
            std::future_status::ready);
  scheduler.shutdown();
}

}  // namespace
}  // namespace dpn::net
