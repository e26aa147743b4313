#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <future>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "core/network.hpp"
#include "dist/node.hpp"
#include "dist/remote_streams.hpp"
#include "dist/ship.hpp"
#include "io/sequence.hpp"
#include "io/data.hpp"
#include "net/mux.hpp"
#include "obs/flight.hpp"
#include "processes/basic.hpp"
#include "processes/copy.hpp"
#include "processes/arith.hpp"
#include "sched/scheduler.hpp"

namespace dpn::dist {
namespace {

using core::Channel;
using core::CompositeProcess;
using processes::Add;
using processes::Collect;
using processes::CollectSink;
using processes::Constant;
using processes::Cons;
using processes::Duplicate;
using processes::Identity;
using processes::Sequence;

// --- Rendezvous ---------------------------------------------------------------

TEST(Rendezvous, ExpectThenDial) {
  auto node_a = NodeContext::create();
  auto node_b = NodeContext::create();
  auto promise = node_a->rendezvous().expect(42);
  std::jthread dialer{[&] {
    std::shared_ptr<net::Stream> stream = RendezvousService::dial(
        "127.0.0.1", node_a->rendezvous().port(), 42, node_b->address());
    const std::string hello = "hi";
    stream->write_all(as_bytes(hello));
  }};
  std::shared_ptr<net::Stream> stream = promise->wait();
  EXPECT_EQ(promise->dialer().port, node_b->rendezvous().port());
  ByteVector buffer(2);
  io::read_fully(*std::make_shared<net::StreamInput>(stream),
                 {buffer.data(), buffer.size()});
  EXPECT_EQ(to_string({buffer.data(), buffer.size()}), "hi");
}

TEST(Rendezvous, DialBeforeExpectIsParked) {
  auto node_a = NodeContext::create();
  auto node_b = NodeContext::create();
  std::shared_ptr<net::Stream> dialed = RendezvousService::dial(
      "127.0.0.1", node_a->rendezvous().port(), 7, node_b->address());
  // Give the acceptor time to park the connection.
  std::this_thread::sleep_for(std::chrono::milliseconds{50});
  auto promise = node_a->rendezvous().expect(7);
  EXPECT_TRUE(promise->fulfilled());
  std::shared_ptr<net::Stream> stream = promise->wait();
  EXPECT_TRUE(stream != nullptr);
}

TEST(Rendezvous, ForgetCancelsWaiter) {
  auto node = NodeContext::create();
  auto promise = node->rendezvous().expect(9);
  std::jthread canceller{[&] {
    std::this_thread::sleep_for(std::chrono::milliseconds{10});
    node->rendezvous().forget(9);
  }};
  EXPECT_THROW(promise->wait(), NetError);
}

// A dial-back whose stream ends inside its HELLO was meant for one of the
// pending tokens, and nothing says which: every waiter learns it lost its
// peer instead of waiting forever.  A stream that ends before its first
// byte names no token and fails nobody.
TEST(Rendezvous, DialLostInsideHelloFailsPendingWaiters) {
  auto node = NodeContext::create();
  auto waiting = node->rendezvous().expect(21);
  const std::uint16_t port = node->rendezvous().port();

  auto probe = net::dial("127.0.0.1", port);
  probe->shutdown_write();
  // The acceptor takes streams in order: once this HELLO is through, the
  // probe has been handled.
  auto other = node->rendezvous().expect(22);
  auto dialed = RendezvousService::dial("127.0.0.1", port, 22, {});
  ASSERT_TRUE(other->wait());
  EXPECT_FALSE(waiting->fulfilled());

  auto cut = net::dial("127.0.0.1", port);
  const std::uint8_t half_magic[2] = {0x44, 0x50};
  cut->write_all({half_magic, sizeof half_magic});
  cut->shutdown_write();
  EXPECT_THROW(waiting->wait(), WorkerLost);
}

// A fiber waiting for its peer's HELLO must park, not pin its worker: on a
// one-worker scheduler the fiber that fulfils the promise can only run
// once the waiter has given the worker back.
TEST(Rendezvous, PromiseWaitParksFiberOnOneWorker) {
  auto node = NodeContext::create();
  auto promise = node->rendezvous().expect(11);
  std::atomic<std::int64_t> blocked{0};
  std::atomic<bool> waited{false};
  std::atomic<bool> fulfilled{false};
  sched::SchedulerOptions options;
  options.mode = sched::SchedMode::kWorkSteal;
  options.workers = 1;
  sched::Scheduler scheduler{options};
  scheduler.spawn(
      [&] {
        // Spawned from here, the fulfiller queues behind the waiter.
        scheduler.spawn(
            [&] {
              fulfilled = promise->fulfill(nullptr, node->address());
            },
            "fulfiller");
        (void)promise->wait(&blocked);
        waited = true;
      },
      "waiter");
  std::promise<void> done;
  std::jthread shutdown{[&] {
    scheduler.shutdown();
    done.set_value();
  }};
  const bool finished = done.get_future().wait_for(std::chrono::seconds{10}) ==
                        std::future_status::ready;
  // A pinned worker never gets there by itself; cancel from outside so
  // the failure reports instead of hanging.
  if (!finished) promise->cancel();
  EXPECT_TRUE(finished) << "promise wait pinned the only worker";
  EXPECT_TRUE(waited.load());
  EXPECT_TRUE(fulfilled.load());
  EXPECT_EQ(blocked.load(), 0);
}

// While a promise wait is parked, the flight recorder's wait-for analysis
// names the waiting process; the resume event clears it again.
TEST(Rendezvous, PromiseWaitNamesTheWaiterInTheFlightRecorder) {
  auto node = NodeContext::create();
  auto promise = node->rendezvous().expect(12);
  const std::string named =
      "stuck-consumer blocked awaiting its remote peer (rendezvous token 12)";
  std::string while_blocked;
  std::jthread fulfiller{[&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds{10};
    do {
      std::this_thread::sleep_for(std::chrono::milliseconds{1});
      while_blocked = obs::flight_wait_for(obs::flight_export().events);
    } while (while_blocked.find(named) == std::string::npos &&
             std::chrono::steady_clock::now() < deadline);
    promise->fulfill(nullptr, node->address());
  }};
  obs::flight_set_actor("stuck-consumer");
  (void)promise->wait();
  obs::flight_set_actor("");
  fulfiller.join();
  EXPECT_NE(while_blocked.find(named), std::string::npos) << while_blocked;
  EXPECT_EQ(obs::flight_wait_for(obs::flight_export().events)
                .find("stuck-consumer"),
            std::string::npos);
}

// A consumer shipped to another host and hung on its mux stream shows in
// that host's wait-for analysis like a consumer hung on a local pipe: a
// row that names the channel it is reading.
TEST(Ship, HungRemoteConsumerIsNamedInTheWaitFor) {
  auto node_a = NodeContext::create();
  auto node_b = NodeContext::create();
  auto ch = std::make_shared<Channel>(256, "hung-edge");
  auto downstream = std::make_shared<Channel>(256, "downstream");
  auto relay = std::make_shared<Identity>(ch->input(), downstream->output());
  const ByteVector shipment = ship_process(node_a, relay);
  auto remote = receive_process(node_b, {shipment.data(), shipment.size()});
  const std::uint64_t id = remote->channel_inputs().at(0)->state()->id;
  const std::string row = "remote-sink blocked reading ch" +
                          std::to_string(id) + " 'hung-edge'";
  std::jthread host_b{[&] {
    obs::flight_set_actor("remote-sink");
    remote->run();
    obs::flight_set_actor("");
  }};
  std::string report;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds{10};
  do {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
    report = obs::flight_wait_for(obs::flight_export().events);
  } while (report.find(row) == std::string::npos &&
           std::chrono::steady_clock::now() < deadline);
  EXPECT_NE(report.find(row), std::string::npos) << report;
  ch->output()->close();  // FIN: the relay reads end-of-stream and stops
  host_b.join();
  EXPECT_EQ(obs::flight_wait_for(obs::flight_export().events).find(row),
            std::string::npos);
}

TEST(Frames, RedirectInfoRoundTrip) {
  RedirectInfo info;
  info.token = 0xdeadbeefcafef00dULL;
  const ByteVector message = info.encode();
  const RedirectInfo decoded =
      RedirectInfo::decode({message.data(), message.size()});
  EXPECT_EQ(decoded.token, info.token);
  EXPECT_FALSE(decoded.trace.valid());
  EXPECT_THROW(RedirectInfo::decode({message.data(), 7}), IoError);
}

TEST(Rendezvous, TokensAreUnique) {
  auto node = NodeContext::create();
  std::set<std::uint64_t> tokens;
  for (int i = 0; i < 1000; ++i) tokens.insert(node->next_token());
  EXPECT_EQ(tokens.size(), 1000u);
}

// --- Shipping a process across a cut channel -----------------------------------

TEST(Ship, MiddleStageMovesToAnotherServer) {
  auto node_a = NodeContext::create();
  auto node_b = NodeContext::create();

  auto ch1 = std::make_shared<Channel>(256, "ch1");
  auto ch2 = std::make_shared<Channel>(256, "ch2");
  auto sink = std::make_shared<CollectSink<std::int64_t>>();

  auto source = std::make_shared<Sequence>(0, ch1->output(), 100);
  auto middle = std::make_shared<Identity>(ch1->input(), ch2->output());
  auto drain = std::make_shared<Collect>(ch2->input(), sink);

  // "Server A" ships the middle stage to "server B": ch1's input endpoint
  // and ch2's output endpoint both move; both channels become sockets.
  const ByteVector shipment = ship_process(node_a, middle);
  auto remote = receive_process(node_b, {shipment.data(), shipment.size()});

  std::jthread host_b{[&] { remote->run(); }};
  std::jthread host_src{[&] { source->run(); }};
  drain->run();

  const auto values = sink->values();
  ASSERT_EQ(values.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(values[i], i);
}

TEST(Ship, UnconsumedBytesTravelWithTheEndpoint) {
  auto node_a = NodeContext::create();
  auto node_b = NodeContext::create();

  auto ch1 = std::make_shared<Channel>(4096, "ch1");
  auto ch2 = std::make_shared<Channel>(4096, "ch2");
  auto sink = std::make_shared<CollectSink<std::int64_t>>();

  // Pre-fill ch1 with unconsumed data *before* shipping its consumer.
  {
    io::DataOutputStream out{*ch1->output()};
    for (std::int64_t i = 0; i < 10; ++i) out.write_i64(i);
  }
  auto middle = std::make_shared<Identity>(ch1->input(), ch2->output());
  auto drain = std::make_shared<Collect>(ch2->input(), sink);

  const ByteVector shipment = ship_process(node_a, middle);
  auto remote = receive_process(node_b, {shipment.data(), shipment.size()});

  // More data flows after the reconnect, through the new socket.
  std::jthread host_b{[&] { remote->run(); }};
  std::jthread producer{[&] {
    io::DataOutputStream out{*ch1->output()};
    for (std::int64_t i = 10; i < 20; ++i) out.write_i64(i);
    ch1->output()->close();
  }};
  drain->run();

  const auto values = sink->values();
  ASSERT_EQ(values.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(values[i], i);  // order preserved
}

TEST(Ship, InternalChannelStaysLocalPipe) {
  auto node_a = NodeContext::create();
  auto node_b = NodeContext::create();

  auto ch_in = std::make_shared<Channel>(256, "in");
  auto mid = std::make_shared<Channel>(256, "mid");
  auto ch_out = std::make_shared<Channel>(256, "out");
  auto sink = std::make_shared<CollectSink<std::int64_t>>();

  // Pre-fill the internal channel too: its buffered bytes must travel.
  {
    io::DataOutputStream out{*mid->output()};
    out.write_i64(-1);
  }

  auto composite = std::make_shared<CompositeProcess>();
  composite->add(std::make_shared<Identity>(ch_in->input(), mid->output()));
  composite->add(std::make_shared<Identity>(mid->input(), ch_out->output()));

  auto source = std::make_shared<Sequence>(0, ch_in->output(), 50);
  auto drain = std::make_shared<Collect>(ch_out->input(), sink);

  const ByteVector shipment = ship_process(node_a, composite);
  auto remote = std::dynamic_pointer_cast<CompositeProcess>(
      receive_process(node_b, {shipment.data(), shipment.size()}));
  ASSERT_TRUE(remote);

  // The channel between the two shipped stages must be an ordinary local
  // pipe on server B, not a socket back to A.
  bool found_internal = false;
  for (const auto& in : remote->channel_inputs()) {
    if (in->state()->pipe) found_internal = true;
  }
  EXPECT_TRUE(found_internal);

  std::jthread host_b{[&] { remote->run(); }};
  std::jthread host_src{[&] { source->run(); }};
  drain->run();

  const auto values = sink->values();
  ASSERT_EQ(values.size(), 51u);
  EXPECT_EQ(values[0], -1);  // the buffered element came through first
  for (int i = 0; i < 50; ++i) EXPECT_EQ(values[i + 1], i);
}

TEST(Ship, TerminationCascadesAcrossSockets) {
  // Consumer-side limit: the local Collect stops first; ChannelClosed
  // must cross the socket and kill the remote producer (Section 3.4).
  auto node_a = NodeContext::create();
  auto node_b = NodeContext::create();

  auto ch = std::make_shared<Channel>(256, "ch");
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto source = std::make_shared<Sequence>(0, ch->output());  // unbounded
  auto drain = std::make_shared<Collect>(ch->input(), sink, 10);

  const ByteVector shipment = ship_process(node_a, source);
  auto remote = receive_process(node_b, {shipment.data(), shipment.size()});

  std::jthread host_b{[&] { remote->run(); }};
  drain->run();
  host_b.join();  // must terminate, not run forever

  ASSERT_EQ(sink->size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sink->values()[i], i);
}

TEST(Ship, ProducerLimitDeliversEofAcrossSockets) {
  auto node_a = NodeContext::create();
  auto node_b = NodeContext::create();

  auto ch = std::make_shared<Channel>(256, "ch");
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto source = std::make_shared<Sequence>(5, ch->output(), 7);
  auto drain = std::make_shared<Collect>(ch->input(), sink);  // unbounded

  const ByteVector shipment = ship_process(node_a, source);
  auto remote = receive_process(node_b, {shipment.data(), shipment.size()});
  std::jthread host_b{[&] { remote->run(); }};
  drain->run();  // stops because FIN arrives after the 7 elements

  EXPECT_EQ(sink->size(), 7u);
}

TEST(Ship, RedirectBypassesTheMiddleman) {
  // Paper Figure 15 / Section 4.3: the producer moves A -> B -> C; after
  // the second move, C talks directly to A (the consumer's node).  The
  // abandoned B must not be involved -- we verify the stream survives both
  // moves byte-exactly, and that B's rendezvous sees no successor dial.
  auto node_a = NodeContext::create();
  auto node_b = NodeContext::create();
  auto node_c = NodeContext::create();

  auto ch = std::make_shared<Channel>(256, "ch");
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto source = std::make_shared<Sequence>(0, ch->output(), 200);
  auto drain = std::make_shared<Collect>(ch->input(), sink);

  // Move to B (establishes B -> A data connection)...
  const ByteVector to_b = ship_process(node_a, source);
  auto at_b = receive_process(node_b, {to_b.data(), to_b.size()});
  // ... and immediately onward to C (B tells A in-band to expect C).
  const ByteVector to_c = ship_process(node_b, at_b);
  auto at_c = receive_process(node_c, {to_c.data(), to_c.size()});

  std::jthread host_c{[&] { at_c->run(); }};
  drain->run();

  const auto values = sink->values();
  ASSERT_EQ(values.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(values[i], i);
}

TEST(Ship, RedirectWithTrafficInFlight) {
  // Harder: B runs for a while (data flowing A<-B), then the producer is
  // shipped onward mid-stream.  Bytes already sent, bytes buffered, and
  // bytes yet to be produced must all arrive exactly once, in order.
  auto node_a = NodeContext::create();
  auto node_b = NodeContext::create();
  auto node_c = NodeContext::create();

  auto ch = std::make_shared<Channel>(256, "ch");
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto source = std::make_shared<Sequence>(0, ch->output(), 300);
  auto drain = std::make_shared<Collect>(ch->input(), sink);

  const ByteVector to_b = ship_process(node_a, source);
  auto at_b = std::dynamic_pointer_cast<processes::Sequence>(
      receive_process(node_b, {to_b.data(), to_b.size()}));
  ASSERT_TRUE(at_b);

  // Let B produce the first chunk of the stream.
  std::jthread drainer{[&] { drain->run(); }};
  {
    // Run 100 iterations "manually" at B by writing through its endpoint.
    io::DataOutputStream out{*at_b->channel_outputs()[0]};
    for (std::int64_t i = 0; i < 100; ++i) out.write_i64(i);
  }
  while (sink->size() < 50) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }

  // Now ship a fresh producer for the remainder from B to C over the same
  // channel endpoint (the Sequence at B still holds it).
  auto tail = std::make_shared<Sequence>(100, at_b->channel_outputs()[0], 200);
  const ByteVector to_c = ship_process(node_b, tail);
  auto at_c = receive_process(node_c, {to_c.data(), to_c.size()});
  std::jthread host_c{[&] { at_c->run(); }};

  drainer.join();
  const auto values = sink->values();
  ASSERT_EQ(values.size(), 300u);
  for (int i = 0; i < 300; ++i) EXPECT_EQ(values[i], i);
}

class RedirectUnderTraffic : public ::testing::TestWithParam<bool> {};

// A producer streaming A <- B at full speed on threads or fibers is
// paused mid-stream and shipped on to C: the consumer's segment ends in a
// redirect, the successor dials A from C, and the consumer's history is
// exactly the Sequence's, with nothing lost or repeated at the cut.
TEST_P(RedirectUnderTraffic, KeepsTheExactHistory) {
  constexpr long kTokens = 200000;
  auto node_a = NodeContext::create();
  auto node_b = NodeContext::create();
  auto node_c = NodeContext::create();
  sched::SchedulerOptions mode;
  if (GetParam()) {
    mode = {.mode = sched::SchedMode::kWorkSteal, .workers = 2};
  }

  auto ch = std::make_shared<Channel>(256, "redirected");
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  core::Network consumers;
  consumers.set_scheduler(mode);
  consumers.add(std::make_shared<Collect>(ch->input(), sink));
  auto source = std::make_shared<Sequence>(0, ch->output(), kTokens);
  const ByteVector to_b = ship_process(node_a, source);
  auto at_b = std::dynamic_pointer_cast<core::IterativeProcess>(
      receive_process(node_b, {to_b.data(), to_b.size()}));
  ASSERT_TRUE(at_b);
  core::Network hosted_b;
  hosted_b.set_scheduler(mode);
  hosted_b.add(at_b);
  consumers.start();
  hosted_b.start();
  while (sink->size() < 1000) std::this_thread::yield();

  at_b->request_pause();
  ASSERT_TRUE(at_b->await_pause()) << "the producer finished first";
  const ByteVector to_c = ship_process(node_b, at_b);
  at_b->abandon();
  hosted_b.join();
  core::Network hosted_c;
  hosted_c.set_scheduler(mode);
  hosted_c.add(receive_process(node_c, {to_c.data(), to_c.size()}));
  hosted_c.start();

  consumers.join();
  hosted_c.join();
  const auto values = sink->values();
  ASSERT_EQ(values.size(), static_cast<std::size_t>(kTokens));
  for (long i = 0; i < kTokens; ++i) {
    ASSERT_EQ(values[static_cast<std::size_t>(i)], i) << "token " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Callers, RedirectUnderTraffic, ::testing::Bool(),
                         [](const auto& instance) {
                           return instance.param ? "fibers" : "threads";
                         });

TEST(Ship, DeadConsumerYieldsDeadEndpoint) {
  auto node_a = NodeContext::create();
  auto node_b = NodeContext::create();

  auto ch = std::make_shared<Channel>(256, "ch");
  ch->input()->close();  // consumer is gone before the shipment

  auto source = std::make_shared<Sequence>(0, ch->output());
  const ByteVector shipment = ship_process(node_a, source);
  auto remote = receive_process(node_b, {shipment.data(), shipment.size()});
  // The remote producer must terminate immediately on its first write.
  remote->run();
  SUCCEED();
}

TEST(Ship, FinishedProducerShipsBufferOnly) {
  // The producer closed before the shipment: the moving consumer carries
  // only the residual bytes (live = false, no socket at all) and ends
  // cleanly after draining them.
  auto node_a = NodeContext::create();
  auto node_b = NodeContext::create();

  auto ch = std::make_shared<Channel>(256, "ch");
  auto out2 = std::make_shared<Channel>(256, "out2");
  {
    io::DataOutputStream out{*ch->output()};
    for (std::int64_t i = 0; i < 5; ++i) out.write_i64(i * 11);
    ch->output()->close();  // producer done before the shipment
  }
  auto mover = std::make_shared<Identity>(ch->input(), out2->output());
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto drain = std::make_shared<Collect>(out2->input(), sink);

  const ByteVector shipment = ship_process(node_a, mover);
  auto remote = receive_process(node_b, {shipment.data(), shipment.size()});
  std::jthread host_b{[&] { remote->run(); }};
  drain->run();
  const auto values = sink->values();
  ASSERT_EQ(values.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(values[i], i * 11);
}

TEST(Ship, EndpointCannotShipTwice) {
  auto node_a = NodeContext::create();
  auto node_b = NodeContext::create();
  auto ch = std::make_shared<Channel>(256, "ch");
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto source = std::make_shared<Sequence>(0, ch->output(), 1);
  auto drain = std::make_shared<Collect>(ch->input(), sink, 1);
  const ByteVector first = ship_process(node_a, source);
  EXPECT_THROW(ship_process(node_a, source), SerializationError);
  // Unblock the pending connection so teardown is clean.
  auto remote = receive_process(node_b, {first.data(), first.size()});
  std::jthread host{[&] { remote->run(); }};
  drain->run();
}

TEST(Ship, ReceivingEndpointOfRemoteProducerCannotMove) {
  auto node_a = NodeContext::create();
  auto node_b = NodeContext::create();
  auto ch = std::make_shared<Channel>(256, "ch");
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto source = std::make_shared<Sequence>(0, ch->output(), 3);
  auto drain = std::make_shared<Collect>(ch->input(), sink);

  const ByteVector shipment = ship_process(node_a, source);
  // The input endpoint's producer is now remote; re-shipping the consumer
  // is documented future work (paper Section 6.1).
  auto holder = std::make_shared<Identity>(
      ch->input(), std::make_shared<Channel>(16)->output());
  EXPECT_THROW(ship_process(node_a, holder), SerializationError);

  auto remote = receive_process(node_b, {shipment.data(), shipment.size()});
  std::jthread host{[&] { remote->run(); }};
  drain->run();
  EXPECT_EQ(sink->size(), 3u);
}

TEST(Ship, WithoutContextThrows) {
  auto ch = std::make_shared<Channel>(16);
  auto source = std::make_shared<Sequence>(0, ch->output(), 1);
  ensure_hooks_installed();
  EXPECT_THROW(serial::to_bytes(source), UsageError);
}

// --- Figure 14: Fibonacci partitioned across two servers ------------------------

TEST(Ship, DistributedFibonacciMatchesLocal) {
  auto node_a = NodeContext::create();
  auto node_b = NodeContext::create();

  const std::size_t cap = 4096;
  auto ab = std::make_shared<Channel>(cap, "ab");
  auto be = std::make_shared<Channel>(cap, "be");
  auto cd = std::make_shared<Channel>(cap, "cd");
  auto df = std::make_shared<Channel>(cap, "df");
  auto ed = std::make_shared<Channel>(cap, "ed");
  auto eg = std::make_shared<Channel>(cap, "eg");
  auto fg = std::make_shared<Channel>(cap, "fg");
  auto fh = std::make_shared<Channel>(cap, "fh");
  auto gb = std::make_shared<Channel>(cap, "gb");
  auto sink = std::make_shared<CollectSink<std::int64_t>>();

  // Partition: the lower half of Figure 2 (Constant cd, Cons df,
  // Duplicate f) moves to server B; everything else stays on A.
  auto moving = std::make_shared<CompositeProcess>();
  moving->add(std::make_shared<Constant>(1, cd->output(), 1));
  moving->add(std::make_shared<Cons>(cd->input(), ed->input(), df->output()));
  moving->add(
      std::make_shared<Duplicate>(df->input(), fh->output(), fg->output()));

  auto staying = std::make_shared<CompositeProcess>();
  staying->add(std::make_shared<Constant>(1, ab->output(), 1));
  staying->add(std::make_shared<Cons>(ab->input(), gb->input(), be->output()));
  staying->add(
      std::make_shared<Duplicate>(be->input(), ed->output(), eg->output()));
  staying->add(std::make_shared<Add>(eg->input(), fg->input(), gb->output()));
  staying->add(std::make_shared<Collect>(fh->input(), sink, 20));

  const ByteVector shipment = ship_process(node_a, moving);
  auto remote = receive_process(node_b, {shipment.data(), shipment.size()});

  std::jthread host_b{[&] { remote->run(); }};
  staying->run();

  std::vector<std::int64_t> expected;
  std::int64_t x = 1, y = 1;
  for (int i = 0; i < 20; ++i) {
    expected.push_back(x);
    const std::int64_t next = x + y;
    x = y;
    y = next;
  }
  EXPECT_EQ(sink->values(), expected);
}

TEST(Ship, NodeTeardownEndsItsMuxConnections) {
  // Each round dials a fresh pair of rendezvous ports, so every round's
  // connections (the dialed one and the accepted one) exist only for its
  // two nodes; destroying the nodes must end them.
  const std::uint64_t before = net::mux_stats().connections;
  constexpr int kRounds = 12;
  for (int round = 0; round < kRounds; ++round) {
    auto node_a = NodeContext::create();
    auto node_b = NodeContext::create();
    auto ch = std::make_shared<Channel>(256, "ch");
    auto sink = std::make_shared<CollectSink<std::int64_t>>();
    auto source = std::make_shared<Sequence>(0, ch->output(), 50);
    auto drain = std::make_shared<Collect>(ch->input(), sink);
    const ByteVector shipment = ship_process(node_a, source);
    auto remote = receive_process(node_b, {shipment.data(), shipment.size()});
    std::jthread host_b{[&] { remote->run(); }};
    drain->run();
    host_b.join();
    ASSERT_EQ(sink->size(), 50u);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds{10};
  while (net::mux_stats().connections > before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
  EXPECT_LE(net::mux_stats().connections, before);
}

TEST(Ship, MnProducersPastTheCreditWindowKeepPace) {
  // Four shipped producers on one M:N network stream far past the remote
  // credit window into four consumers on another.  These once crawled
  // (4 x 100 000 tokens took about a minute); now they take well under a
  // second, and 20 s is the bound.
  constexpr std::size_t kChannels = 4;
  constexpr long kTokens = 100000;
  auto node_a = NodeContext::create();
  auto node_b = NodeContext::create();
  core::Network consumers;
  core::Network producers;
  const sched::SchedulerOptions mn{.mode = sched::SchedMode::kWorkSteal,
                                   .workers = 4};
  consumers.set_scheduler(mn);
  producers.set_scheduler(mn);
  std::vector<std::shared_ptr<CollectSink<std::int64_t>>> sinks;
  for (std::size_t i = 0; i < kChannels; ++i) {
    auto channel = consumers.make_channel();
    sinks.push_back(std::make_shared<CollectSink<std::int64_t>>());
    auto source = std::make_shared<Sequence>(
        static_cast<std::int64_t>(i) << 40, channel->output(), kTokens);
    consumers.add(std::make_shared<Collect>(channel->input(), sinks.back()));
    const ByteVector shipment = ship_process(node_a, source);
    producers.add(receive_process(node_b, {shipment.data(), shipment.size()}));
  }
  const auto start = std::chrono::steady_clock::now();
  auto done = std::async(std::launch::async, [&] {
    producers.start();
    consumers.start();
    consumers.join();
    producers.join();
  });
  if (done.wait_for(std::chrono::seconds{20}) != std::future_status::ready) {
    consumers.abort();
    producers.abort();
    done.wait();
    FAIL() << "4 x " << kTokens << " tokens did not finish within 20 s";
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds{20});
  for (std::size_t i = 0; i < kChannels; ++i) {
    const std::vector<std::int64_t> values = sinks[i]->values();
    ASSERT_EQ(values.size(), static_cast<std::size_t>(kTokens)) << i;
    for (long k = 0; k < kTokens; ++k) {
      ASSERT_EQ(values[static_cast<std::size_t>(k)],
                (static_cast<std::int64_t>(i) << 40) + k)
          << "channel " << i << " token " << k;
    }
  }
}

// --- The Sequence layer over remote segments --------------------------------

/// One remote channel segment: the producer's end (a FrameChannelOutput
/// over a dialed mux stream) and the consumer's accepted stream.
struct MuxSegment {
  std::shared_ptr<FrameChannelOutput> out;
  std::shared_ptr<net::Stream> in;
};

MuxSegment open_mux_segment(net::Listener& listener, std::size_t window) {
  net::DialOptions options;
  options.stream_window = window;
  auto client = net::dial("127.0.0.1", listener.port(), options);
  return {std::make_shared<FrameChannelOutput>(std::move(client),
                                               PeerAddress{}),
          listener.accept()};
}

/// Reads `stream` to its end.
ByteVector drain(net::Stream& stream) {
  ByteVector all;
  ByteVector buffer(4096);  // whole tokens, as the window
  while (const std::size_t n =
             stream.read_some({buffer.data(), buffer.size()})) {
    all.insert(all.end(), buffer.begin(),
               buffer.begin() + static_cast<std::ptrdiff_t>(n));
  }
  return all;
}

TEST(SequenceOverMux, SwitchRacingWriterKeepsExactByteOrder) {
  // SequenceOutput.SwitchRacingWriterKeepsExactByteOrder on mux-stream
  // segments.  Each switch ends the old stream with a FIN while the
  // writer races it, often parked on the 4 KiB window; one reader drains
  // the streams in order.  They concatenate to exactly the bytes written,
  // and as the window and every read hold whole tokens, each 8-byte
  // write is one publish and lands whole in one stream.  Halfway, the
  // writer waits for the first switch, so the first stream must not hold
  // the rest.
  constexpr std::uint64_t kTokens = 100000;
  constexpr int kSwitches = 100;
  constexpr std::size_t kWindow = 4096;
  auto listener = net::listen(0);
  std::vector<MuxSegment> segments{open_mux_segment(*listener, kWindow)};
  auto seq = std::make_shared<io::SequenceOutputStream>(segments[0].out);

  std::mutex mutex;
  std::condition_variable opened;
  std::vector<std::shared_ptr<net::Stream>> ins{segments[0].in};
  bool all_opened = false;
  std::vector<ByteVector> received;
  std::jthread reader{[&] {
    for (std::size_t k = 0;; ++k) {
      std::shared_ptr<net::Stream> in;
      {
        std::unique_lock lock{mutex};
        opened.wait(lock, [&] { return k < ins.size() || all_opened; });
        if (k == ins.size()) return;
        in = ins[k];
      }
      received.push_back(drain(*in));
    }
  }};
  std::atomic<bool> writing{true};
  std::atomic<int> switches{0};
  std::jthread writer{[&] {
    for (std::uint64_t i = 0; i < kTokens; ++i) {
      if (i == kTokens / 2) {
        while (switches.load() == 0) std::this_thread::yield();
      }
      std::uint8_t token[8];
      put_u64(token, i);
      seq->write({token, sizeof token});
    }
    writing.store(false);
  }};
  for (int i = 0; i < kSwitches && writing.load(); ++i) {
    segments.push_back(open_mux_segment(*listener, kWindow));
    {
      std::scoped_lock lock{mutex};
      ins.push_back(segments.back().in);
    }
    opened.notify_one();
    seq->switch_to(segments.back().out, /*close_old=*/i % 2 == 0);
    switches.fetch_add(1);
  }
  writer.join();
  seq->close();
  // Ends a segment a switch failed to end, so the reader cannot hang.
  for (const MuxSegment& segment : segments) segment.out->close();
  {
    std::scoped_lock lock{mutex};
    all_opened = true;
  }
  opened.notify_one();
  reader.join();
  EXPECT_GT(segments.size(), 2u);
  EXPECT_LE(received.front().size(), kTokens / 2 * 8)
      << "the first switch missed";
  ByteVector all;
  for (const ByteVector& bytes : received) {
    EXPECT_EQ(bytes.size() % 8, 0u);
    all.insert(all.end(), bytes.begin(), bytes.end());
  }
  ASSERT_EQ(all.size(), kTokens * 8);
  for (std::uint64_t i = 0; i < kTokens; ++i) {
    ASSERT_EQ(get_u64(all.data() + 8 * i), i);
  }
}

TEST(SequenceOverMux, CutStopsTheWriterParkedOnTheWindow) {
  // The writer has spent the old stream's 16-byte window and parks on
  // it; nothing reads that stream yet.  The switch returns without
  // waiting; the FIN wakes the writer, which finishes on the successor.
  // The old stream holds the window's 16 bytes, then its end.
  auto listener = net::listen(0);
  MuxSegment old_segment = open_mux_segment(*listener, 16);
  MuxSegment next_segment = open_mux_segment(*listener, 1024);
  auto seq = std::make_shared<io::SequenceOutputStream>(old_segment.out);
  ByteVector history(64);
  std::iota(history.begin(), history.end(), std::uint8_t{0});
  std::promise<void> wrote;
  const std::uint64_t stalls = net::mux_stats().credit_stalls;
  std::jthread writer{[&] {
    try {
      seq->write({history.data(), history.size()});
      wrote.set_value();
    } catch (...) {
      wrote.set_exception(std::current_exception());
    }
  }};
  // The window is spent: the writer stalls on it.
  while (net::mux_stats().credit_stalls == stalls) std::this_thread::yield();
  auto cut = std::async(std::launch::async, [&] {
    seq->switch_to(next_segment.out, /*close_old=*/true);
  });
  if (cut.wait_for(std::chrono::seconds{5}) != std::future_status::ready) {
    old_segment.in->close();  // unwedges the writer with an RST
    FAIL() << "the cut waited for the write in flight";
  }
  auto done = wrote.get_future();
  if (done.wait_for(std::chrono::seconds{5}) != std::future_status::ready) {
    old_segment.in->close();
    FAIL() << "the stopped writer did not resume";
  }
  done.get();
  seq->close();
  ByteVector got = drain(*old_segment.in);
  EXPECT_EQ(got.size(), 16u);
  const ByteVector rest = drain(*next_segment.in);
  got.insert(got.end(), rest.begin(), rest.end());
  EXPECT_EQ(got, history);
}

}  // namespace
}  // namespace dpn::dist
