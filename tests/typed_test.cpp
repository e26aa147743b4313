#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "core/network.hpp"
#include "core/typed.hpp"
#include "dist/ship.hpp"
#include "io/data.hpp"
#include "io/memory.hpp"
#include "io/pipe.hpp"
#include "obs/snapshot.hpp"
#include "processes/basic.hpp"
#include "sched/scheduler.hpp"
#include "serial/serial.hpp"

/// The typed zero-copy fast path (io/typed_ring.hpp, core/typed.hpp):
/// contract conformance (blocking, bounded, ordered, cascading close),
/// demotion to the byte plane at ship cut points, the poisoned-ring audit
/// case, obs integration (counters, v6 snapshot suffix), and the
/// determinacy matrix run over both data planes and both schedulers.
namespace dpn {
namespace {

using core::Channel;
using core::ChannelOptions;
using core::Codec;
using core::make_typed_channel;
using core::Network;
using core::TypedReader;
using core::TypedWriter;
using processes::CollectSink;

// --- ring contract ---------------------------------------------------------

TEST(Typed, FastPathRoundTripAndCounters) {
  auto ch = make_typed_channel<std::int64_t>({.capacity = 4096});
  TypedWriter<std::int64_t> writer{ch->output()};
  TypedReader<std::int64_t> reader{ch->input()};
  ASSERT_TRUE(writer.fast_path());
  ASSERT_TRUE(reader.fast_path());

  for (std::int64_t i = 0; i < 100; ++i) {
    writer.put(i * 3);
    const auto v = reader.get();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i * 3);
  }

  // The ring bypasses the byte endpoints, yet the channel's traffic
  // counters must match what the byte path would have recorded: one token
  // and Codec::kWireSize bytes per value, both directions.
  const auto& m = *ch->state()->metrics;
  EXPECT_EQ(m.tokens_written.load(), 100u);
  EXPECT_EQ(m.bytes_written.load(), 800u);
  EXPECT_EQ(m.tokens_read.load(), 100u);
  EXPECT_EQ(m.bytes_read.load(), 800u);
}

TEST(Typed, DoubleCodecRoundTrip) {
  auto ch = make_typed_channel<double>({.capacity = 1024});
  TypedWriter<double> writer{ch->output()};
  TypedReader<double> reader{ch->input()};
  const double values[] = {0.0, -1.5, 3.14159, 1e300, -0.0};
  for (const double v : values) {
    writer.put(v);
    const auto got = reader.get();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, v);  // bit-exact through double_to_bits
  }
}

TEST(Typed, BoundedWriterBlocksUntilDrained) {
  // 64 bytes = 8 slots (rounded to 16 by the pow2 ring): the writer must
  // park well before 200 values without a consumer.
  auto ch = make_typed_channel<std::int64_t>({.capacity = 64});
  std::atomic<int> pushed{0};
  std::jthread producer{[&] {
    TypedWriter<std::int64_t> writer{ch->output()};
    for (std::int64_t i = 0; i < 200; ++i) {
      writer.put(i);
      pushed.fetch_add(1);
    }
    writer.close();
  }};
  while (ch->state()->typed->stats().blocked_writers == 0) {
    std::this_thread::yield();
  }
  const int parked_at = pushed.load();
  EXPECT_LT(parked_at, 200);
  std::this_thread::sleep_for(std::chrono::milliseconds{10});
  EXPECT_EQ(pushed.load(), parked_at);  // genuinely parked, not spinning on

  TypedReader<std::int64_t> reader{ch->input()};
  for (std::int64_t i = 0; i < 200; ++i) {
    const auto v = reader.get();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);  // FIFO across the park/wake boundary
  }
  EXPECT_FALSE(reader.get().has_value());  // close_write drained to EOF
}

TEST(Typed, CloseReadFailsProducerWithChannelClosed) {
  auto ch = make_typed_channel<std::int64_t>({.capacity = 256});
  TypedWriter<std::int64_t> writer{ch->output()};
  writer.put(1);
  ch->input()->close();
  EXPECT_THROW(writer.put(2), ChannelClosed);
}

TEST(Typed, CloseReadWakesParkedProducer) {
  auto ch = make_typed_channel<std::int64_t>({.capacity = 64});
  std::atomic<bool> threw{false};
  std::jthread producer{[&] {
    TypedWriter<std::int64_t> writer{ch->output()};
    try {
      for (std::int64_t i = 0; i < 1000; ++i) writer.put(i);
    } catch (const ChannelClosed&) {
      threw.store(true);
    }
  }};
  while (ch->state()->typed->stats().blocked_writers == 0) {
    std::this_thread::yield();
  }
  ch->input()->close();
  producer.join();
  EXPECT_TRUE(threw.load());
}

TEST(Typed, AbortWakesBothSides) {
  // The reader parked on an empty ring, then the writer parked on a full
  // one: abort wakes either with Interrupted.
  for (const bool writer_side : {false, true}) {
    SCOPED_TRACE(writer_side ? "parked writer" : "parked reader");
    auto ch = make_typed_channel<std::int64_t>({.capacity = 64});
    std::atomic<bool> interrupted{false};
    std::jthread side{[&] {
      try {
        if (writer_side) {
          TypedWriter<std::int64_t> writer{ch->output()};
          for (std::int64_t i = 0; i < 1000; ++i) writer.put(i);
        } else {
          TypedReader<std::int64_t> reader{ch->input()};
          (void)reader.get();
        }
      } catch (const Interrupted&) {
        interrupted.store(true);
      }
    }};
    const auto parked = [&] {
      const auto stats = ch->state()->typed->stats();
      return writer_side ? stats.blocked_writers : stats.blocked_readers;
    };
    while (parked() == 0) std::this_thread::yield();
    ch->state()->typed->abort();
    side.join();
    EXPECT_TRUE(interrupted.load());
  }
}

TEST(Typed, GrowUnblocksParkedWriter) {
  auto ch = make_typed_channel<std::int64_t>({.capacity = 64});
  std::atomic<int> pushed{0};
  std::jthread producer{[&] {
    TypedWriter<std::int64_t> writer{ch->output()};
    for (std::int64_t i = 0; i < 100; ++i) {
      writer.put(i);
      pushed.fetch_add(1);
    }
  }};
  while (ch->state()->typed->stats().blocked_writers == 0) {
    std::this_thread::yield();
  }
  ch->state()->typed->grow(256);  // Parks' rule: grow the full channel
  producer.join();
  EXPECT_EQ(pushed.load(), 100);
  TypedReader<std::int64_t> reader{ch->input()};
  for (std::int64_t i = 0; i < 100; ++i) {
    const auto v = reader.get();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);  // grow's slot remap preserved order
  }
}

TEST(Typed, StorageGrowsOnDemandKeepingFifoAcrossWrap) {
  // Bound 256 slots, storage starting at 16: offset head_ first so the
  // backlog straddles the storage wrap point when each doubling relinks
  // it, then push well past the first block without a consumer (no
  // parking below the bound).
  io::TypedRing<std::int64_t, Codec<std::int64_t>> ring{256};
  std::int64_t next_in = 0;
  std::int64_t next_out = 0;
  std::int64_t value = 0;
  for (int i = 0; i < 11; ++i) {
    ASSERT_EQ(ring.push(std::int64_t{next_in++}),
              io::TypedRingBase::PushResult::kOk);
  }
  for (int i = 0; i < 11; ++i) {
    ASSERT_EQ(ring.pop(value), io::TypedRingBase::PopResult::kOk);
    EXPECT_EQ(value, next_out++);
  }
  for (int i = 0; i < 250; ++i) {
    ASSERT_EQ(ring.push(std::int64_t{next_in++}),
              io::TypedRingBase::PushResult::kOk);
  }
  EXPECT_EQ(ring.capacity(), 256u);
  EXPECT_EQ(ring.stats().size, 250u);
  while (next_out < next_in) {
    ASSERT_EQ(ring.pop(value), io::TypedRingBase::PopResult::kOk);
    EXPECT_EQ(value, next_out++);
  }
}

TEST(Typed, PopAtCloseNeverDropsTheLastValue) {
  // The producer's last push and its close can land while the consumer is
  // between its empty probe and its look at the flags.  pop must still
  // return that value before kEof: dropping it would silently truncate
  // the history.  Many trials, the consumer racing on another thread.
  using Ring = io::TypedRing<std::int64_t, Codec<std::int64_t>>;
  for (int trial = 0; trial < 2000; ++trial) {
    Ring ring{16};
    const std::size_t count = static_cast<std::size_t>(trial % 3);
    std::atomic<bool> popping{false};
    std::vector<std::int64_t> got;
    io::TypedRingBase::PopResult last = io::TypedRingBase::PopResult::kOk;
    std::jthread consumer{[&] {
      popping.store(true);
      std::int64_t v = 0;
      while ((last = ring.pop(v)) == io::TypedRingBase::PopResult::kOk) {
        got.push_back(v);
      }
    }};
    while (!popping.load()) std::this_thread::yield();
    for (int spin = 0; spin < trial % 64; ++spin) {
      std::atomic_signal_fence(std::memory_order_seq_cst);
    }
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(ring.push(static_cast<std::int64_t>(i)),
                io::TypedRingBase::PushResult::kOk);
    }
    ring.close_write();  // before any ASSERT: the consumer must end
    consumer.join();
    ASSERT_EQ(last, io::TypedRingBase::PopResult::kEof);
    ASSERT_EQ(got.size(), count) << "trial " << trial;
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(got[i], static_cast<std::int64_t>(i));
    }
  }
}

TEST(Typed, ByteAccessToLiveRingFailsInsteadOfHanging) {
  // With the ring live the pipe carries nothing: a byte reader would wait
  // forever and a byte writer's tokens would never reach a typed reader.
  auto ch = make_typed_channel<std::int64_t>({.capacity = 256});
  io::DataInputStream in{*ch->input()};
  io::DataOutputStream out{*ch->output()};
  EXPECT_THROW((void)in.read_i64(), UsageError);
  EXPECT_THROW(out.write_i64(1), UsageError);

  // Once demoted, the byte plane is the channel: both directions work.
  io::LocalOutputStream sink{ch->pipe()};
  ch->state()->typed->demote_into(sink);
  out.write_i64(7);
  EXPECT_EQ(in.read_i64(), 7);
}

// --- demotion --------------------------------------------------------------

TEST(Typed, DemotionFlushesBacklogThenBothSidesFallBack) {
  auto ch = make_typed_channel<std::int64_t>({.capacity = 4096});
  TypedWriter<std::int64_t> writer{ch->output()};
  for (std::int64_t i = 0; i < 10; ++i) writer.put(i);

  // What the ship cut does: backlog into the pipe, in wire format.
  ch->pipe()->set_unbounded();
  io::LocalOutputStream sink{ch->pipe()};
  ch->state()->typed->demote_into(sink);
  EXPECT_TRUE(ch->state()->typed->demoted());

  // The producer's next put discovers the demotion and encodes through
  // the endpoint; the consumer drains [ring backlog][byte writes] in
  // order with no seam.
  for (std::int64_t i = 10; i < 20; ++i) writer.put(i);
  EXPECT_FALSE(writer.fast_path());

  TypedReader<std::int64_t> reader{ch->input()};
  for (std::int64_t i = 0; i < 20; ++i) {
    const auto v = reader.get();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(reader.fast_path());

  // Counters stayed seamless across the demotion: 20 tokens, 160 bytes.
  EXPECT_EQ(ch->state()->metrics->tokens_written.load(), 20u);
  EXPECT_EQ(ch->state()->metrics->bytes_written.load(), 160u);
}

TEST(Typed, ConsumerParkedInRingSurvivesDemotion) {
  // The race the gate protects: a consumer blocks on an empty ring, the
  // producer's endpoint ships (demoting the ring), and the next values
  // arrive as bytes.  The parked consumer must wake, fall back, and see a
  // gapless stream.
  auto ch = make_typed_channel<std::int64_t>({.capacity = 4096});
  CollectSink<std::int64_t> sink;
  std::jthread consumer{[&] {
    TypedReader<std::int64_t> reader{ch->input()};
    while (const auto v = reader.get()) sink.push(*v);
  }};
  while (ch->state()->typed->stats().blocked_readers == 0) {
    std::this_thread::yield();
  }
  ch->pipe()->set_unbounded();
  io::LocalOutputStream pipe_sink{ch->pipe()};
  ch->state()->typed->demote_into(pipe_sink);

  TypedWriter<std::int64_t> writer{ch->output()};
  for (std::int64_t i = 0; i < 50; ++i) writer.put(i);
  writer.close();
  consumer.join();
  const auto values = sink.values();
  ASSERT_EQ(values.size(), 50u);
  for (std::int64_t i = 0; i < 50; ++i) EXPECT_EQ(values[i], i);
}

/// Codec whose encode throws on a marker value: the demotion audit case.
struct ExplodingCodec {
  static constexpr std::size_t kWireSize = 8;
  static void encode(std::int64_t v, io::OutputStream& out) {
    if (v == 7) throw SerializationError{"exploding codec"};
    Codec<std::int64_t>::encode(v, out);
  }
  static std::int64_t decode(io::InputStream& in) {
    return Codec<std::int64_t>::decode(in);
  }
};

TEST(Typed, ThrowingEncodeAtDemotionPoisonsRingNotTheStream) {
  auto ch = make_typed_channel<std::int64_t, ExplodingCodec>(
      {.capacity = 4096});
  TypedWriter<std::int64_t, ExplodingCodec> writer{ch->output()};
  for (std::int64_t i = 5; i < 10; ++i) writer.put(i);  // includes 7

  io::MemoryOutputStream sink;
  EXPECT_THROW(ch->state()->typed->demote_into(sink), SerializationError);
  // All-or-nothing: the failed cut published no partial token.
  EXPECT_TRUE(sink.data().empty());
  EXPECT_TRUE(ch->state()->typed->demoted());

  // The consumer's history has a hole; it must see WorkerLost, never a
  // clean end-of-stream.
  TypedReader<std::int64_t, ExplodingCodec> reader{ch->input()};
  EXPECT_THROW((void)reader.get(), WorkerLost);
}

// --- serializable typed processes for the ship / determinacy matrix -------

class TypedSource final : public core::IterativeProcess {
 public:
  TypedSource() = default;
  TypedSource(std::int64_t start,
              std::shared_ptr<core::ChannelOutputStream> out, long iterations,
              std::int64_t delay_us = 0)
      : IterativeProcess(iterations), next_(start), delay_us_(delay_us) {
    track_output(std::move(out));
  }

  std::string type_name() const override { return "test.TypedSource"; }
  void write_fields(serial::ObjectOutputStream& out) const override {
    write_base(out);
    out.write_i64(next_);
    out.write_i64(delay_us_);
  }
  static std::shared_ptr<TypedSource> read_object(
      serial::ObjectInputStream& in) {
    auto process = std::make_shared<TypedSource>();
    process->read_base(in);
    process->next_ = in.read_i64();
    process->delay_us_ = in.read_i64();
    return process;
  }

 protected:
  void step() override {
    // The writer is rebuilt lazily after a migration: a reconstructed
    // remote endpoint has no ring, so it transparently takes the byte
    // path.
    if (!writer_) writer_.emplace(output(0));
    writer_->put(next_++);
    if (delay_us_ > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds{delay_us_});
    }
  }

 private:
  std::optional<TypedWriter<std::int64_t>> writer_;
  std::int64_t next_ = 0;
  std::int64_t delay_us_ = 0;
};

[[maybe_unused]] const bool kTypedSourceRegistered =
    serial::register_type<TypedSource>("test.TypedSource");

class TypedIdentity final : public core::IterativeProcess {
 public:
  TypedIdentity() = default;
  TypedIdentity(std::shared_ptr<core::ChannelInputStream> in,
                std::shared_ptr<core::ChannelOutputStream> out)
      : IterativeProcess(0) {
    track_input(std::move(in));
    track_output(std::move(out));
  }

  std::string type_name() const override { return "test.TypedIdentity"; }
  void write_fields(serial::ObjectOutputStream& out) const override {
    write_base(out);
  }
  static std::shared_ptr<TypedIdentity> read_object(
      serial::ObjectInputStream& in) {
    auto process = std::make_shared<TypedIdentity>();
    process->read_base(in);
    return process;
  }

 protected:
  void step() override {
    if (!reader_) reader_.emplace(input(0));
    if (!writer_) writer_.emplace(output(0));
    const auto v = reader_->get();
    if (!v) throw EndOfStream{};
    writer_->put(*v);
  }

 private:
  std::optional<TypedReader<std::int64_t>> reader_;
  std::optional<TypedWriter<std::int64_t>> writer_;
};

[[maybe_unused]] const bool kTypedIdentityRegistered =
    serial::register_type<TypedIdentity>("test.TypedIdentity");

/// Collects typed values into a CollectSink (local-only, like Collect).
class TypedCollect final : public core::IterativeProcess {
 public:
  TypedCollect(std::shared_ptr<core::ChannelInputStream> in,
               std::shared_ptr<CollectSink<std::int64_t>> sink,
               std::int64_t delay_us = 0)
      : sink_(std::move(sink)), delay_us_(delay_us) {
    track_input(std::move(in));
  }

  std::string type_name() const override { return "test.TypedCollect"; }
  void write_fields(serial::ObjectOutputStream&) const override {
    throw SerializationError{"TypedCollect holds a process-local sink"};
  }

 protected:
  void step() override {
    if (!reader_) reader_.emplace(input(0));
    const auto v = reader_->get();
    if (!v) throw EndOfStream{};
    sink_->push(*v);
    if (delay_us_ > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds{delay_us_});
    }
  }

 private:
  std::optional<TypedReader<std::int64_t>> reader_;
  std::shared_ptr<CollectSink<std::int64_t>> sink_;
  std::int64_t delay_us_ = 0;
};

// --- mid-run ship forces demotion ------------------------------------------

TEST(TypedShip, ProducerShipsMidRunConsumerFallsBackGapless) {
  // replace_output_endpoint's Local branch: the producer leaves, the ring
  // demotes into the pipe, the staying consumer drains [ring backlog]
  // [socket bytes] in order.
  auto node_a = dist::NodeContext::create();
  auto node_b = dist::NodeContext::create();
  auto ch = make_typed_channel<std::int64_t>({.capacity = 512});
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto producer =
      std::make_shared<TypedSource>(0, ch->output(), 300, /*delay_us=*/50);
  auto drain = std::make_shared<TypedCollect>(ch->input(), sink);

  std::jthread drain_thread{[&] { drain->run(); }};
  std::jthread run_a{[&] { producer->run(); }};
  while (sink->size() < 30) std::this_thread::yield();

  producer->request_pause();
  ASSERT_TRUE(producer->await_pause());
  const ByteVector shipment = dist::ship_process(node_a, producer);
  producer->abandon();
  run_a.join();
  EXPECT_TRUE(ch->state()->typed->demoted());

  auto at_b = std::dynamic_pointer_cast<core::IterativeProcess>(
      dist::receive_process(node_b, {shipment.data(), shipment.size()}));
  ASSERT_TRUE(at_b);
  std::jthread run_b{[&] { at_b->run(); }};

  drain_thread.join();
  const auto values = sink->values();
  ASSERT_EQ(values.size(), 300u);
  for (int i = 0; i < 300; ++i) EXPECT_EQ(values[i], i);  // no loss, no dup
}

TEST(TypedShip, MiddleStageShipsBothRingsDemote) {
  // Shipping a stage with one typed input and one typed output exercises
  // both cut paths at once: replace_input_endpoint (its upstream ring)
  // and replace_output_endpoint (its downstream ring).
  auto node_a = dist::NodeContext::create();
  auto node_b = dist::NodeContext::create();
  auto ch1 = make_typed_channel<std::int64_t>({.capacity = 512});
  auto ch2 = make_typed_channel<std::int64_t>({.capacity = 512});
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto source =
      std::make_shared<TypedSource>(0, ch1->output(), 300, /*delay_us=*/50);
  auto middle = std::make_shared<TypedIdentity>(ch1->input(), ch2->output());
  auto drain = std::make_shared<TypedCollect>(ch2->input(), sink);

  std::jthread source_thread{[&] { source->run(); }};
  std::jthread drain_thread{[&] { drain->run(); }};
  std::jthread run_a{[&] { middle->run(); }};
  while (sink->size() < 30) std::this_thread::yield();

  middle->request_pause();
  ASSERT_TRUE(middle->await_pause());
  const ByteVector shipment = dist::ship_process(node_a, middle);
  middle->abandon();
  run_a.join();
  EXPECT_TRUE(ch1->state()->typed->demoted());
  EXPECT_TRUE(ch2->state()->typed->demoted());

  auto at_b = std::dynamic_pointer_cast<core::IterativeProcess>(
      dist::receive_process(node_b, {shipment.data(), shipment.size()}));
  ASSERT_TRUE(at_b);
  std::jthread run_b{[&] { at_b->run(); }};

  source_thread.join();
  drain_thread.join();
  const auto values = sink->values();
  ASSERT_EQ(values.size(), 300u);
  for (int i = 0; i < 300; ++i) EXPECT_EQ(values[i], i);
}

// --- determinacy matrix ----------------------------------------------------

struct SchedConfig {
  std::string label;
  sched::SchedulerOptions options;
};

std::vector<SchedConfig> scheduler_matrix() {
  std::vector<SchedConfig> matrix;
  matrix.push_back({"thread-per-process", {}});
  for (const unsigned workers : {1u, 4u}) {
    sched::SchedulerOptions options;
    options.mode = sched::SchedMode::kWorkSteal;
    options.workers = workers;
    matrix.push_back(
        {"work-steal x" + std::to_string(workers), std::move(options)});
  }
  return matrix;
}

std::vector<std::int64_t> run_typed_pipeline(
    const sched::SchedulerOptions& options, bool typed) {
  Network network;
  network.set_scheduler(options);
  std::shared_ptr<Channel> ch1, ch2;
  if (typed) {
    ch1 = make_typed_channel<std::int64_t>({.capacity = 128});
    ch2 = make_typed_channel<std::int64_t>({.capacity = 128});
  } else {
    ch1 = std::make_shared<Channel>(ChannelOptions{.capacity = 128});
    ch2 = std::make_shared<Channel>(ChannelOptions{.capacity = 128});
  }
  network.watch(ch1);
  network.watch(ch2);
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  network.add(std::make_shared<TypedSource>(-100, ch1->output(), 400));
  network.add(std::make_shared<TypedIdentity>(ch1->input(), ch2->output()));
  network.add(std::make_shared<TypedCollect>(ch2->input(), sink));
  network.run();
  return sink->values();
}

TEST(TypedDeterminacy, MatrixByteIdenticalAcrossPlanesAndSchedulers) {
  // {typed fast path, byte stream} x {thread-per-process, M:N}: the same
  // graph must produce the identical history on every combination.  The
  // typed endpoints themselves pick the plane: with no ring installed
  // they run the byte path through the same Codec.
  std::vector<std::int64_t> reference;
  for (const bool typed : {true, false}) {
    for (const auto& config : scheduler_matrix()) {
      const auto values = run_typed_pipeline(config.options, typed);
      ASSERT_EQ(values.size(), 400u)
          << (typed ? "typed " : "bytes ") << config.label;
      if (reference.empty()) {
        reference = values;
      } else {
        EXPECT_EQ(values, reference)
            << (typed ? "typed " : "bytes ") << config.label;
      }
    }
  }
  for (int i = 0; i < 400; ++i) EXPECT_EQ(reference[i], i - 100);
}

TEST(TypedDeterminacy, MidRunShipMatchesLocalHistory) {
  // The forced-demotion run must be byte-identical to the pure local
  // runs: 0..299 with no seam where the ring handed over to the socket.
  // (TypedShip.ProducerShipsMidRunConsumerFallsBackGapless asserts the
  // same order; this rechecks it against the local-plane reference.)
  const auto local = [&] {
    Network network;
    auto ch = make_typed_channel<std::int64_t>({.capacity = 512});
    network.watch(ch);
    auto sink = std::make_shared<CollectSink<std::int64_t>>();
    network.add(std::make_shared<TypedSource>(0, ch->output(), 300));
    network.add(std::make_shared<TypedCollect>(ch->input(), sink));
    network.run();
    return sink->values();
  }();
  ASSERT_EQ(local.size(), 300u);

  auto node_a = dist::NodeContext::create();
  auto node_b = dist::NodeContext::create();
  auto ch = make_typed_channel<std::int64_t>({.capacity = 512});
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto producer =
      std::make_shared<TypedSource>(0, ch->output(), 300, /*delay_us=*/50);
  auto drain = std::make_shared<TypedCollect>(ch->input(), sink);
  std::jthread drain_thread{[&] { drain->run(); }};
  std::jthread run_a{[&] { producer->run(); }};
  while (sink->size() < 50) std::this_thread::yield();
  producer->request_pause();
  ASSERT_TRUE(producer->await_pause());
  const ByteVector shipment = dist::ship_process(node_a, producer);
  producer->abandon();
  run_a.join();
  auto at_b = std::dynamic_pointer_cast<core::IterativeProcess>(
      dist::receive_process(node_b, {shipment.data(), shipment.size()}));
  ASSERT_TRUE(at_b);
  std::jthread run_b{[&] { at_b->run(); }};
  drain_thread.join();

  EXPECT_EQ(sink->values(), local);
}

// --- cuts racing live traffic ---------------------------------------------

/// Puts 0, 1, ... but holds `hold_at` back until `release` is set, so a
/// cut aimed at mid-stream cannot find the producer already closed.
class HeldSource final : public core::IterativeProcess {
 public:
  HeldSource(std::shared_ptr<core::ChannelOutputStream> out, long count,
             std::int64_t hold_at, const std::atomic<bool>& release)
      : IterativeProcess(count), hold_at_(hold_at), release_(release) {
    track_output(std::move(out));
  }

  std::string type_name() const override { return "test.HeldSource"; }
  void write_fields(serial::ObjectOutputStream&) const override {
    throw SerializationError{"HeldSource is local-only"};
  }

 protected:
  void step() override {
    if (!writer_) writer_.emplace(output(0));
    while (next_ == hold_at_ && !release_.load()) std::this_thread::yield();
    writer_->put(next_++);
  }

 private:
  std::optional<TypedWriter<std::int64_t>> writer_;
  std::int64_t next_ = 0;
  std::int64_t hold_at_;
  const std::atomic<bool>& release_;
};

TEST(Typed, CutsRacingTrafficKeepExactHistory) {
  // Every cut a live ring takes, against a producer and a consumer that
  // keep running: storage growth (the ring starts at 16 slots of a
  // 64-slot bound, so the producer doubles it while pops are live),
  // grow() from a third thread, and one demotion mid-stream through the
  // ship path.  The history across ring plus byte plane must be exact --
  // no value lost, none duplicated -- on threads and on M:N.
  constexpr std::size_t kCount = 60000;
  sched::SchedulerOptions mn;
  mn.mode = sched::SchedMode::kWorkSteal;
  mn.workers = 2;
  const std::vector<SchedConfig> configs = {{"threads", {}},
                                            {"work-steal x2", mn}};
  for (const auto& config : configs) {
    for (int run = 0; run < 3; ++run) {
      std::atomic<bool> release{false};  // outlives the network's processes
      Network network;
      network.set_scheduler(config.options);
      auto ch = make_typed_channel<std::int64_t>({.capacity = 64 * 8});
      network.watch(ch);
      auto sink = std::make_shared<CollectSink<std::int64_t>>();
      network.add(std::make_shared<HeldSource>(
          ch->output(), static_cast<long>(kCount), kCount * 3 / 4, release));
      network.add(std::make_shared<TypedCollect>(ch->input(), sink));
      std::jthread cutter{[&] {
        io::TypedRingBase& ring = *ch->state()->typed;
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds{20};
        for (int i = 0; sink->size() < kCount / 2; ++i) {
          if (std::chrono::steady_clock::now() > deadline) break;
          // Mostly no-op grows (a bare cut); every 64th doubles the
          // bound, up to 1024 slots, so the producer still parks.
          const std::size_t cap = ring.capacity();
          ring.grow(i % 64 == 0 && cap < 1024 ? cap + 1 : cap);
          std::this_thread::yield();
        }
        // The producer is held short of its close, so the backlog lands
        // in the pipe ahead of its later byte-path writes.
        EXPECT_TRUE(dist::demote_typed(ch->state()).empty());
        release.store(true);
      }};
      network.run();
      cutter.join();
      const auto values = sink->values();
      ASSERT_EQ(values.size(), kCount) << config.label << " run " << run;
      for (std::size_t i = 0; i < kCount; ++i) {
        ASSERT_EQ(values[i], static_cast<std::int64_t>(i))
            << config.label << " run " << run;
      }
      const auto stats = ch->state()->typed->stats();
      EXPECT_TRUE(stats.demoted);
      EXPECT_EQ(stats.blocked_readers, 0u);
      EXPECT_EQ(stats.blocked_writers, 0u);
      EXPECT_EQ(ch->pipe()->blocked_readers(), 0u);
      EXPECT_EQ(ch->pipe()->blocked_writers(), 0u);
    }
  }
}

// --- observability ---------------------------------------------------------

TEST(TypedObs, SnapshotCarriesRingStateThroughV6) {
  auto ch = make_typed_channel<std::int64_t>({.capacity = 4096,
                                              .label = "typed"});
  TypedWriter<std::int64_t> writer{ch->output()};
  for (std::int64_t i = 0; i < 12; ++i) writer.put(i);
  TypedReader<std::int64_t> reader{ch->input()};
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(reader.get().has_value());

  obs::NetworkSnapshot snap;
  snap.channels.push_back(core::snapshot_channel(*ch->state()));
  {
    const auto& c = snap.channels.back();
    EXPECT_TRUE(c.has_typed);
    EXPECT_FALSE(c.typed_demoted);
    EXPECT_EQ(c.typed_pushed, 12u);
    EXPECT_EQ(c.typed_popped, 5u);
    EXPECT_EQ(c.typed_buffered, 7u);
    // Live ring: occupancy reported in bytes via the codec's wire size so
    // the deadlock monitor's arithmetic is plane-agnostic.
    EXPECT_EQ(c.buffered, 56u);
    EXPECT_EQ(c.capacity, c.typed_capacity * 8);
  }

  // Typed fields survive the wire.
  const ByteVector wire = snap.encode();
  const auto decoded = obs::NetworkSnapshot::decode(wire);
  ASSERT_EQ(decoded.channels.size(), 1u);
  EXPECT_TRUE(decoded.channels[0].has_typed);
  EXPECT_EQ(decoded.channels[0].typed_pushed, 12u);
  EXPECT_EQ(decoded.channels[0].typed_popped, 5u);
  EXPECT_EQ(decoded.channels[0].typed_buffered, 7u);
  EXPECT_EQ(decoded.channels[0].bytes_written, 96u);
}

TEST(TypedObs, MonitorGrowsRingOnArtificialDeadlock) {
  // A typed producer with no consumer fills the ring and parks; the
  // deadlock monitor must find the ring (via the byte-denominated
  // snapshot fields) and grow it, exactly as it grows a byte pipe.
  Network network;
  network.enable_monitor(core::MonitorOptions{
      .poll_interval = std::chrono::milliseconds{20}});
  auto ch = make_typed_channel<std::int64_t>({.capacity = 64,
                                              .label = "ring"});
  network.watch(ch);
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  network.add(std::make_shared<TypedSource>(0, ch->output(), 100));
  // A consumer that will not read until the source finished: classic
  // artificial deadlock, resolvable by growth.
  std::atomic<bool> source_done{false};
  std::jthread unblocker{[&] {
    while (!source_done.load()) std::this_thread::sleep_for(
        std::chrono::milliseconds{5});
    TypedReader<std::int64_t> reader{ch->input()};
    while (reader.get().has_value()) {
    }
  }};
  std::jthread runner{[&] {
    network.run();
    source_done.store(true);
  }};
  runner.join();
  source_done.store(true);
  unblocker.join();
  EXPECT_GE(network.growth_events(), 1u);
  EXPECT_GE(ch->state()->typed->capacity() * 8, 100u * 8u);
}

// --- teardown-gridlock regression (consumer close on a full window) --------

/// Serializable consumer that reads a fixed number of i64 tokens and
/// returns, closing its endpoints -- the remote-consumer half of the
/// teardown-gridlock regression.
class DiscardN final : public core::IterativeProcess {
 public:
  DiscardN() = default;
  DiscardN(std::shared_ptr<core::ChannelInputStream> in, long iterations)
      : IterativeProcess(iterations) {
    track_input(std::move(in));
  }
  std::string type_name() const override { return "test.DiscardN"; }
  void write_fields(serial::ObjectOutputStream& out) const override {
    write_base(out);
  }
  static std::shared_ptr<DiscardN> read_object(serial::ObjectInputStream& in) {
    auto process = std::make_shared<DiscardN>();
    process->read_base(in);
    return process;
  }

 protected:
  void step() override {
    io::DataInputStream in{*input(0)};
    (void)in.read_i64();
  }
};

[[maybe_unused]] const bool kDiscardNRegistered =
    serial::register_type<DiscardN>("test.DiscardN");

TEST(TypedTeardown, CloseFrameWakesProducerParkedOnCredit) {
  // The seed-era gridlock: a remote consumer finishes and closes while
  // the producer is parked on an exhausted window.  The consumer's close
  // frame (the stream's RST) must wake the producer into ChannelClosed;
  // this combination once hung forever.
  auto node_a = dist::NodeContext::create();
  auto node_b = dist::NodeContext::create();
  // Tiny credit window: the producer outruns it immediately and parks.
  auto ch = std::make_shared<Channel>(core::ChannelOptions{
      .capacity = 256, .label = "gridlock", .remote = {.credit_window = 2048}});
  auto producer = std::make_shared<processes::Sequence>(
      0, ch->output(), 200000);  // 1.6 MB if it ever completed
  std::shared_ptr<core::Process> consumer =
      std::make_shared<DiscardN>(ch->input(), 100);

  const ByteVector shipment = dist::ship_process(node_a, consumer);
  consumer = dist::receive_process(node_b, {shipment.data(),
                                            shipment.size()});

  std::atomic<bool> producer_done{false};
  std::jthread producer_thread{[&] {
    producer->run();  // ends via ChannelClosed cascade
    producer_done.store(true);
  }};
  std::jthread consumer_thread{[&] { consumer->run(); }};
  consumer_thread.join();

  // The producer must unwedge promptly; 10 s is forever next to the
  // microseconds the wake takes, yet far under the pre-fix infinity.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds{10};
  while (!producer_done.load() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
  EXPECT_TRUE(producer_done.load()) << "producer still parked on credit";
  producer_thread.join();
}

}  // namespace
}  // namespace dpn
