#include <gtest/gtest.h>

#include <thread>

#include "core/channel.hpp"
#include "dist/ship.hpp"
#include "processes/basic.hpp"
#include "rmi/compute_server.hpp"
#include "rmi/migrate.hpp"

namespace dpn {
namespace {

using core::Channel;
using processes::Collect;
using processes::CollectSink;
using processes::Sequence;

/// Collect with a per-element delay, so migration tests have a stream
/// that is reliably still flowing when they act on the producer.
class SlowDrain final : public core::IterativeProcess {
 public:
  SlowDrain(std::shared_ptr<core::ChannelInputStream> in,
            std::shared_ptr<CollectSink<std::int64_t>> sink,
            std::chrono::microseconds delay)
      : sink_(std::move(sink)), delay_(delay) {
    track_input(std::move(in));
  }
  std::string type_name() const override { return "test.SlowDrain"; }
  void write_fields(serial::ObjectOutputStream&) const override {
    throw SerializationError{"local-only"};
  }

 protected:
  void step() override {
    io::DataInputStream in{*input(0)};
    const std::int64_t value = in.read_i64();
    std::this_thread::sleep_for(delay_);
    sink_->push(value);
  }

 private:
  std::shared_ptr<CollectSink<std::int64_t>> sink_;
  std::chrono::microseconds delay_;
};

/// A serializable Sequence with a per-element delay: migration tests need
/// a source that is still mid-stream when they pause it, even when its
/// output runs over a socket (where TCP buffering removes backpressure).
class SlowSequence final : public core::IterativeProcess {
 public:
  SlowSequence() = default;
  SlowSequence(std::int64_t start, std::shared_ptr<core::ChannelOutputStream> out,
               long iterations, std::int64_t delay_us)
      : IterativeProcess(iterations), next_(start), delay_us_(delay_us) {
    track_output(std::move(out));
  }

  std::string type_name() const override { return "test.SlowSequence"; }
  void write_fields(serial::ObjectOutputStream& out) const override {
    write_base(out);
    out.write_i64(next_);
    out.write_i64(delay_us_);
  }
  static std::shared_ptr<SlowSequence> read_object(
      serial::ObjectInputStream& in) {
    auto process = std::make_shared<SlowSequence>();
    process->read_base(in);
    process->next_ = in.read_i64();
    process->delay_us_ = in.read_i64();
    return process;
  }

 protected:
  void step() override {
    io::DataOutputStream out{*output(0)};
    out.write_i64(next_++);
    std::this_thread::sleep_for(std::chrono::microseconds{delay_us_});
  }

 private:
  std::int64_t next_ = 0;
  std::int64_t delay_us_ = 0;
};

[[maybe_unused]] const bool kSlowSequenceRegistered =
    serial::register_type<SlowSequence>("test.SlowSequence");

// --- Pause / resume / abandon ----------------------------------------------

TEST(Pause, ParksAtStepBoundaryAndResumes) {
  auto ch = std::make_shared<Channel>(64);  // small: producer backpressured
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto producer = std::make_shared<Sequence>(0, ch->output(), 500);
  auto drain = std::make_shared<SlowDrain>(ch->input(), sink,
                                           std::chrono::microseconds{50});

  std::jthread producer_thread{[&] { producer->run(); }};
  std::jthread drain_thread{[&] { drain->run(); }};

  while (sink->size() < 20) std::this_thread::yield();
  producer->request_pause();
  ASSERT_TRUE(producer->await_pause());
  EXPECT_TRUE(producer->paused());

  // Let the consumer drain everything in flight (the channel holds at
  // most 8 elements); with the producer parked the sink must go quiet.
  std::this_thread::sleep_for(std::chrono::milliseconds{20});
  const std::size_t settled = sink->size();
  std::this_thread::sleep_for(std::chrono::milliseconds{20});
  EXPECT_EQ(sink->size(), settled);
  EXPECT_LT(settled, 500u);

  producer->resume();
  EXPECT_FALSE(producer->paused());
  producer_thread.join();
  drain_thread.join();

  const auto values = sink->values();
  ASSERT_EQ(values.size(), 500u);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(values[i], i);
}

TEST(Pause, AwaitReturnsFalseWhenProcessFinishedFirst) {
  auto ch = std::make_shared<Channel>(4096);
  auto producer = std::make_shared<Sequence>(0, ch->output(), 3);
  producer->run();  // completes immediately
  producer->request_pause();
  EXPECT_FALSE(producer->await_pause());
}

TEST(Pause, AbandonReturnsWithoutClosingEndpoints) {
  // A slow source that fits entirely in the channel: it neither blocks on
  // a full pipe (which would delay parking) nor finishes before the pause.
  auto ch = std::make_shared<Channel>(4096);
  auto producer =
      std::make_shared<SlowSequence>(0, ch->output(), 400, /*delay_us=*/100);
  std::jthread producer_thread{[&] { producer->run(); }};

  producer->request_pause();
  ASSERT_TRUE(producer->await_pause());
  producer->abandon();
  producer_thread.join();  // run() returned...

  // ... and the channel is untouched: still writable, not write-closed.
  EXPECT_FALSE(ch->pipe()->write_closed());
  io::DataOutputStream out{*ch->output()};
  EXPECT_NO_THROW(out.write_i64(42));
}

TEST(Pause, ResumeRequiresPausedState) {
  auto ch = std::make_shared<Channel>(4096);
  auto producer = std::make_shared<Sequence>(0, ch->output(), 1);
  EXPECT_THROW(producer->resume(), UsageError);
  EXPECT_THROW(producer->abandon(), UsageError);
}

// --- Migration of a running process -------------------------------------------

TEST(Migrate, RunningProducerMovesToComputeServer) {
  auto node_a = dist::NodeContext::create();
  rmi::ComputeServer server_b{"migrate-target"};

  auto ch = std::make_shared<Channel>(256);
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto producer = std::make_shared<Sequence>(0, ch->output(), 200);
  auto drain = std::make_shared<SlowDrain>(ch->input(), sink,
                                           std::chrono::microseconds{100});

  std::jthread producer_thread{[&] { producer->run(); }};
  std::jthread drain_thread{[&] { drain->run(); }};

  // Let some of the stream flow locally first.
  while (sink->size() < 50) std::this_thread::yield();

  rmi::ServerHandle handle{rmi::Endpoint{"127.0.0.1", server_b.port()},
                           node_a};
  ASSERT_TRUE(rmi::migrate(producer, handle));
  producer_thread.join();  // local instance returned via abandon

  drain_thread.join();  // remote continuation finishes the stream
  const auto values = sink->values();
  ASSERT_EQ(values.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(values[i], i);  // no loss, no dup
  EXPECT_EQ(server_b.processes_hosted(), 1u);
  server_b.stop();
}

TEST(Migrate, FinishedProcessReportsFalse) {
  auto node_a = dist::NodeContext::create();
  rmi::ComputeServer server_b{"migrate-none"};
  auto ch = std::make_shared<Channel>(4096);
  auto producer = std::make_shared<Sequence>(0, ch->output(), 2);
  producer->run();
  rmi::ServerHandle handle{rmi::Endpoint{"127.0.0.1", server_b.port()},
                           node_a};
  EXPECT_FALSE(rmi::migrate(producer, handle));
  server_b.stop();
}

TEST(Migrate, FailedShipmentResumesInPlace) {
  auto node_a = dist::NodeContext::create();
  auto ch = std::make_shared<Channel>(256);
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto producer = std::make_shared<Sequence>(0, ch->output(), 100);
  auto drain = std::make_shared<SlowDrain>(ch->input(), sink,
                                           std::chrono::microseconds{100});

  std::jthread producer_thread{[&] { producer->run(); }};
  std::jthread drain_thread{[&] { drain->run(); }};
  while (sink->size() < 10) std::this_thread::yield();

  // Port 1: nothing listens; the connect fails before anything ships.
  rmi::ServerHandle dead{rmi::Endpoint{"127.0.0.1", 1}, node_a};
  EXPECT_THROW(rmi::migrate(producer, dead), NetError);

  // The producer resumed and the stream completes locally, intact.
  producer_thread.join();
  drain_thread.join();
  ASSERT_EQ(sink->size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sink->values()[i], i);
}

TEST(Migrate, TwiceAcrossThreeNodes) {
  // A -> B -> C while the stream is flowing: the second hop exercises the
  // redirect protocol with a process that has real execution history.
  auto node_a = dist::NodeContext::create();
  auto node_b = dist::NodeContext::create();
  auto node_c = dist::NodeContext::create();

  auto ch = std::make_shared<Channel>(256);
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto producer =
      std::make_shared<SlowSequence>(0, ch->output(), 300, /*delay_us=*/100);
  auto drain = std::make_shared<Collect>(ch->input(), sink);

  std::jthread drain_thread{[&] { drain->run(); }};
  std::jthread run_a{[&] { producer->run(); }};
  while (sink->size() < 30) std::this_thread::yield();

  // Hop 1: ship the parked producer to "node B" by hand.
  producer->request_pause();
  ASSERT_TRUE(producer->await_pause());
  const ByteVector to_b = dist::ship_process(node_a, producer);
  producer->abandon();
  run_a.join();

  auto at_b = std::dynamic_pointer_cast<core::IterativeProcess>(
      dist::receive_process(node_b, {to_b.data(), to_b.size()}));
  ASSERT_TRUE(at_b);
  std::jthread run_b{[&] { at_b->run(); }};
  while (sink->size() < 120) std::this_thread::yield();

  // Hop 2: again, B -> C; the producer's output endpoint is now remote,
  // so serialization redirects the consumer to C.
  at_b->request_pause();
  ASSERT_TRUE(at_b->await_pause());
  const ByteVector to_c = dist::ship_process(node_b, at_b);
  at_b->abandon();
  run_b.join();

  auto at_c = dist::receive_process(node_c, {to_c.data(), to_c.size()});
  std::jthread run_c{[&] { at_c->run(); }};

  drain_thread.join();
  const auto values = sink->values();
  ASSERT_EQ(values.size(), 300u);
  for (int i = 0; i < 300; ++i) EXPECT_EQ(values[i], i);
}

}  // namespace
}  // namespace dpn
