#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <thread>

#include "io/memory.hpp"

#include "core/network.hpp"
#include "io/data.hpp"
#include "processes/arith.hpp"
#include "processes/basic.hpp"
#include "processes/copy.hpp"
#include "processes/merge.hpp"
#include "processes/router.hpp"

namespace dpn::processes {
namespace {

using core::Channel;
using core::MonitorOptions;
using core::Network;

std::vector<std::int64_t> first_fibonacci(std::size_t n) {
  std::vector<std::int64_t> fib;
  std::int64_t a = 1, b = 1;
  for (std::size_t i = 0; i < n; ++i) {
    fib.push_back(a);
    const std::int64_t next = a + b;
    a = b;
    b = next;
  }
  return fib;
}

/// Builds the Figure 2/6 Fibonacci graph, collecting `count` numbers.
/// Mirrors the paper's Figure 6 code line by line.
void run_fibonacci(std::size_t count, std::size_t capacity,
                   std::vector<std::int64_t>* out) {
  Network network;
  auto ab = network.make_channel({.capacity = capacity, .label = "ab"});
  auto be = network.make_channel({.capacity = capacity, .label = "be"});
  auto cd = network.make_channel({.capacity = capacity, .label = "cd"});
  auto df = network.make_channel({.capacity = capacity, .label = "df"});
  auto ed = network.make_channel({.capacity = capacity, .label = "ed"});
  auto eg = network.make_channel({.capacity = capacity, .label = "eg"});
  auto fg = network.make_channel({.capacity = capacity, .label = "fg"});
  auto fh = network.make_channel({.capacity = capacity, .label = "fh"});
  auto gb = network.make_channel({.capacity = capacity, .label = "gb"});
  auto sink = std::make_shared<CollectSink<std::int64_t>>();

  network.add(std::make_shared<Constant>(1, ab->output(), 1));
  network.add(
      std::make_shared<Cons>(ab->input(), gb->input(), be->output()));
  network.add(std::make_shared<Duplicate>(be->input(), ed->output(),
                                          eg->output()));
  network.add(std::make_shared<Add>(eg->input(), fg->input(), gb->output()));
  network.add(std::make_shared<Constant>(1, cd->output(), 1));
  network.add(
      std::make_shared<Cons>(cd->input(), ed->input(), df->output()));
  network.add(std::make_shared<Duplicate>(df->input(), fh->output(),
                                          fg->output()));
  network.add(std::make_shared<Collect>(fh->input(), sink,
                                        static_cast<long>(count)));
  network.run();
  *out = sink->values();
}

TEST(Fibonacci, FirstTwentyNumbers) {
  std::vector<std::int64_t> values;
  run_fibonacci(20, io::Pipe::kDefaultCapacity, &values);
  EXPECT_EQ(values, first_fibonacci(20));
}

TEST(Fibonacci, DeterminateAcrossCapacities) {
  // The cyclic graph must produce the same history at any buffer size
  // large enough to avoid artificial deadlock on the cycle.
  for (const std::size_t capacity : {32u, 64u, 256u, 4096u}) {
    std::vector<std::int64_t> values;
    run_fibonacci(15, capacity, &values);
    EXPECT_EQ(values, first_fibonacci(15)) << "capacity " << capacity;
  }
}

TEST(Fibonacci, SmallCapacityWithMonitor) {
  // With tiny channels the feedback cycle wedges on blocking writes; the
  // deadlock monitor grows them and the result is still exact (Section
  // 3.5 + [13]).
  Network network;
  const std::size_t capacity = 8;  // one element per channel
  auto ab = network.make_channel({.capacity = capacity, .label = "ab"});
  auto be = network.make_channel({.capacity = capacity, .label = "be"});
  auto cd = network.make_channel({.capacity = capacity, .label = "cd"});
  auto df = network.make_channel({.capacity = capacity, .label = "df"});
  auto ed = network.make_channel({.capacity = capacity, .label = "ed"});
  auto eg = network.make_channel({.capacity = capacity, .label = "eg"});
  auto fg = network.make_channel({.capacity = capacity, .label = "fg"});
  auto fh = network.make_channel({.capacity = capacity, .label = "fh"});
  auto gb = network.make_channel({.capacity = capacity, .label = "gb"});
  auto sink = std::make_shared<CollectSink<std::int64_t>>();

  network.add(std::make_shared<Constant>(1, ab->output(), 1));
  network.add(std::make_shared<Cons>(ab->input(), gb->input(), be->output()));
  network.add(
      std::make_shared<Duplicate>(be->input(), ed->output(), eg->output()));
  network.add(std::make_shared<Add>(eg->input(), fg->input(), gb->output()));
  network.add(std::make_shared<Constant>(1, cd->output(), 1));
  network.add(std::make_shared<Cons>(cd->input(), ed->input(), df->output()));
  network.add(
      std::make_shared<Duplicate>(df->input(), fh->output(), fg->output()));
  network.add(std::make_shared<Collect>(fh->input(), sink, 20));
  network.enable_monitor(MonitorOptions{});
  network.run();
  EXPECT_EQ(sink->values(), first_fibonacci(20));
}

// --- Cons self-removal (Figures 9/10) ---------------------------------------

TEST(Cons, PrependsThenSplicesOut) {
  Network network;
  auto init = network.make_channel({.capacity = 64, .label = "init"});
  auto rest = network.make_channel({.capacity = 64, .label = "rest"});
  auto out = network.make_channel({.capacity = 64, .label = "out"});
  auto sink = std::make_shared<CollectSink<std::int64_t>>();

  auto cons = std::make_shared<Cons>(init->input(), rest->input(),
                                     out->output());
  network.add(std::make_shared<Constant>(99, init->output(), 1));
  network.add(std::make_shared<Sequence>(0, rest->output(), 50));
  network.add(cons);
  network.add(std::make_shared<Collect>(out->input(), sink));
  network.run();

  EXPECT_TRUE(cons->spliced_out());
  const auto values = sink->values();
  ASSERT_EQ(values.size(), 51u);
  EXPECT_EQ(values[0], 99);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(values[i + 1], i);
}

TEST(Cons, NoDataLostWhenSplicingUnderLoad) {
  // The rest-producer races ahead, stuffing the channel before the splice
  // happens; every element must still arrive exactly once, in order.
  Network network;
  auto init = network.make_channel({.capacity = 8, .label = "init"});
  auto rest = network.make_channel({.capacity = 4096, .label = "rest"});
  auto out = network.make_channel({.capacity = 8, .label = "out"});
  auto sink = std::make_shared<CollectSink<std::int64_t>>();

  network.add(std::make_shared<Constant>(-1, init->output(), 1));
  network.add(std::make_shared<Sequence>(0, rest->output(), 2000));
  network.add(std::make_shared<Cons>(init->input(), rest->input(),
                                     out->output()));
  network.add(std::make_shared<Collect>(out->input(), sink));
  network.run();

  const auto values = sink->values();
  ASSERT_EQ(values.size(), 2001u);
  EXPECT_EQ(values[0], -1);
  for (int i = 0; i < 2000; ++i) EXPECT_EQ(values[i + 1], i);
}

TEST(Cons, DisabledSelfRemovalStillCorrect) {
  Network network;
  auto init = network.make_channel({.capacity = 64});
  auto rest = network.make_channel({.capacity = 64});
  auto out = network.make_channel({.capacity = 64});
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto cons = std::make_shared<Cons>(init->input(), rest->input(),
                                     out->output(), /*self_remove=*/false);
  network.add(std::make_shared<Constant>(7, init->output(), 1));
  network.add(std::make_shared<Sequence>(0, rest->output(), 10));
  network.add(cons);
  network.add(std::make_shared<Collect>(out->input(), sink));
  network.run();
  EXPECT_FALSE(cons->spliced_out());
  EXPECT_EQ(sink->size(), 11u);
}

// --- Newton's method (Figure 11) ----------------------------------------------

TEST(Newton, SquareRootConverges) {
  // r_n = (x/r_{n-1} + r_{n-1}) / 2, terminating when the estimate stops
  // changing; the Guard passes exactly one value.
  const double x = 2.0;
  Network network;
  auto xs = network.make_channel({.capacity = 64, .label = "x"});
  auto r_init = network.make_channel({.capacity = 64, .label = "r0"});
  auto r_feedback = network.make_channel({.capacity = 4096, .label = "rfb"});
  auto r = network.make_channel({.capacity = 64, .label = "r"});
  auto r_for_div = network.make_channel({.capacity = 64});
  auto r_for_avg = network.make_channel({.capacity = 64});
  auto r_for_eq = network.make_channel({.capacity = 64});
  auto quotient = network.make_channel({.capacity = 64});
  auto r_next = network.make_channel({.capacity = 64});
  auto next_dup1 = network.make_channel({.capacity = 64});   // feedback copy
  auto next_dup2 = network.make_channel({.capacity = 64});   // to Equal
  auto next_dup3 = network.make_channel({.capacity = 64});   // to Guard data
  auto control = network.make_channel({.capacity = 64});
  auto result = network.make_channel({.capacity = 64});
  auto sink = std::make_shared<CollectSink<double>>();

  network.add(std::make_shared<ConstantF64>(x, xs->output()));
  network.add(std::make_shared<ConstantF64>(1.0, r_init->output(), 1));
  network.add(std::make_shared<Cons>(r_init->input(), r_feedback->input(),
                                     r->output()));
  network.add(std::make_shared<Duplicate>(
      r->input(), std::vector{r_for_div->output(), r_for_avg->output(),
                              r_for_eq->output()}));
  network.add(std::make_shared<Divide>(xs->input(), r_for_div->input(),
                                       quotient->output()));
  network.add(std::make_shared<Average>(quotient->input(), r_for_avg->input(),
                                        r_next->output()));
  network.add(std::make_shared<Duplicate>(
      r_next->input(), std::vector{next_dup1->output(), next_dup2->output(),
                                   next_dup3->output()}));
  network.add(std::make_shared<Identity>(next_dup1->input(),
                                         r_feedback->output()));
  network.add(std::make_shared<Equal>(next_dup2->input(), r_for_eq->input(),
                                      control->output()));
  network.add(std::make_shared<Guard>(next_dup3->input(), control->input(),
                                      result->output(),
                                      /*stop_after_pass=*/true));
  network.add(std::make_shared<CollectF64>(result->input(), sink));
  network.run();

  ASSERT_EQ(sink->size(), 1u);
  EXPECT_DOUBLE_EQ(sink->values()[0], std::sqrt(2.0));
}

// --- Hamming (Figure 12) --------------------------------------------------------

TEST(Hamming, SequenceUnderDeadlockMonitor) {
  // The unbounded 2^k 3^m 5^n graph: every merge output feeds 2-3 new
  // elements back, so fixed-capacity channels always wedge eventually;
  // the monitor grows them until the consumer's limit stops the run.
  Network network;
  auto out = network.make_channel({.capacity = 64, .label = "out"});
  auto seed = network.make_channel({.capacity = 64, .label = "seed"});
  auto stream = network.make_channel({.capacity = 64, .label = "stream"});
  auto to_dup = network.make_channel({.capacity = 64});
  auto c2 = network.make_channel({.capacity = 64});
  auto c3 = network.make_channel({.capacity = 64});
  auto c5 = network.make_channel({.capacity = 64});
  auto s2 = network.make_channel({.capacity = 64});
  auto s3 = network.make_channel({.capacity = 64});
  auto s5 = network.make_channel({.capacity = 64});
  auto sink = std::make_shared<CollectSink<std::int64_t>>();

  network.add(std::make_shared<Constant>(1, seed->output(), 1));
  network.add(std::make_shared<Cons>(seed->input(), out->input(),
                                     stream->output()));
  network.add(std::make_shared<Duplicate>(
      stream->input(),
      std::vector{to_dup->output(), c2->output(), c3->output(),
                  c5->output()}));
  network.add(std::make_shared<Scale>(c2->input(), s2->output(), 2));
  network.add(std::make_shared<Scale>(c3->input(), s3->output(), 3));
  network.add(std::make_shared<Scale>(c5->input(), s5->output(), 5));
  network.add(std::make_shared<OrderedMerge>(
      std::vector{s2->input(), s3->input(), s5->input()}, out->output()));
  network.add(std::make_shared<Collect>(to_dup->input(), sink, 30));
  network.enable_monitor(MonitorOptions{});
  network.run();

  const std::vector<std::int64_t> expected{1,  2,  3,  4,  5,  6,  8,  9,
                                           10, 12, 15, 16, 18, 20, 24, 25,
                                           27, 30, 32, 36, 40, 45, 48, 50,
                                           54, 60, 64, 72, 75, 80};
  EXPECT_EQ(sink->values(), expected);
}

// --- Routers -------------------------------------------------------------------

ByteVector blob_of(std::int64_t value) {
  auto sink = std::make_shared<io::MemoryOutputStream>();
  io::DataOutputStream data{*sink};
  data.write_i64(value);
  return sink->take();
}

std::int64_t blob_value(const ByteVector& blob) {
  io::MemoryInputStream source{blob};
  io::DataInputStream data{source};
  return data.read_i64();
}

/// Writes numbered blobs into a channel.
class BlobSource final : public IterativeProcess {
 public:
  BlobSource(std::shared_ptr<ChannelOutputStream> out, long count)
      : IterativeProcess(count) {
    track_output(std::move(out));
  }
  std::string type_name() const override { return "test.BlobSource"; }
  void write_fields(serial::ObjectOutputStream&) const override {}

 protected:
  void step() override {
    io::DataOutputStream out{*output(0)};
    const ByteVector blob = blob_of(next_++);
    out.write_bytes({blob.data(), blob.size()});
  }

 private:
  std::int64_t next_ = 0;
};

/// Collects numbered blobs from a channel.
class BlobSink final : public IterativeProcess {
 public:
  BlobSink(std::shared_ptr<ChannelInputStream> in,
           std::shared_ptr<CollectSink<std::int64_t>> sink)
      : sink_(std::move(sink)) {
    track_input(std::move(in));
  }
  std::string type_name() const override { return "test.BlobSink"; }
  void write_fields(serial::ObjectOutputStream&) const override {}

 protected:
  void step() override {
    io::DataInputStream in{*input(0)};
    sink_->push(blob_value(in.read_bytes()));
  }

 private:
  std::shared_ptr<CollectSink<std::int64_t>> sink_;
};

TEST(ScatterGather, RoundRobinOrderPreserved) {
  constexpr std::size_t kWorkers = 4;
  constexpr long kBlobs = 40;
  Network network;
  auto in = network.make_channel({.capacity = 4096});
  auto out = network.make_channel({.capacity = 4096});
  auto sink = std::make_shared<CollectSink<std::int64_t>>();

  std::vector<std::shared_ptr<core::ChannelOutputStream>> task_outs;
  std::vector<std::shared_ptr<core::ChannelInputStream>> result_ins;
  for (std::size_t i = 0; i < kWorkers; ++i) {
    auto tasks = network.make_channel({.capacity = 4096});
    auto results = network.make_channel({.capacity = 4096});
    network.add(
        std::make_shared<Identity>(tasks->input(), results->output()));
    task_outs.push_back(tasks->output());
    result_ins.push_back(results->input());
  }
  network.add(std::make_shared<BlobSource>(in->output(), kBlobs));
  network.add(std::make_shared<Scatter>(in->input(), task_outs));
  network.add(std::make_shared<Gather>(result_ins, out->output()));
  network.add(std::make_shared<BlobSink>(out->input(), sink));
  network.run();

  const auto values = sink->values();
  ASSERT_EQ(values.size(), static_cast<std::size_t>(kBlobs));
  for (long i = 0; i < kBlobs; ++i) EXPECT_EQ(values[i], i);
}

TEST(Direct, RoutesByIndexStream) {
  Network network;
  auto in = network.make_channel({.capacity = 4096});
  auto order = network.make_channel({.capacity = 4096});
  auto out0 = network.make_channel({.capacity = 4096});
  auto out1 = network.make_channel({.capacity = 4096});
  auto sink0 = std::make_shared<CollectSink<std::int64_t>>();
  auto sink1 = std::make_shared<CollectSink<std::int64_t>>();

  network.add(std::make_shared<BlobSource>(in->output(), 6));
  // Route blobs 0..5 to outputs 1,0,0,1,1,0.
  {
    io::DataOutputStream idx{*order->output()};
    for (const std::int64_t i : {1, 0, 0, 1, 1, 0}) idx.write_i64(i);
    order->output()->close();
  }
  network.add(std::make_shared<Direct>(
      in->input(), order->input(),
      std::vector{out0->output(), out1->output()}));
  network.add(std::make_shared<BlobSink>(out0->input(), sink0));
  network.add(std::make_shared<BlobSink>(out1->input(), sink1));
  network.run();

  EXPECT_EQ(sink0->values(), (std::vector<std::int64_t>{1, 2, 5}));
  EXPECT_EQ(sink1->values(), (std::vector<std::int64_t>{0, 3, 4}));
}

TEST(Direct, OutOfRangeIndexStopsCleanly) {
  Network network;
  auto in = network.make_channel({.capacity = 4096});
  auto order = network.make_channel({.capacity = 4096});
  auto out0 = network.make_channel({.capacity = 4096});
  auto sink0 = std::make_shared<CollectSink<std::int64_t>>();
  network.add(std::make_shared<BlobSource>(in->output(), 2));
  {
    io::DataOutputStream idx{*order->output()};
    idx.write_i64(0);
    idx.write_i64(5);  // out of range
    order->output()->close();
  }
  network.add(std::make_shared<Direct>(in->input(), order->input(),
                                       std::vector{out0->output()}));
  network.add(std::make_shared<BlobSink>(out0->input(), sink0));
  network.run();  // Direct stops with an IoError; graph still terminates
  EXPECT_EQ(sink0->values(), (std::vector<std::int64_t>{0}));
}

TEST(TurnstileSelect, IndexedMergeReordersToTaskOrder) {
  // Manual MetaDynamic core: two "workers" with wildly different delays.
  // The turnstile sees results in completion order, but the Select must
  // deliver them in task order.
  constexpr long kTasks = 20;
  Network network;
  auto in = network.make_channel({.capacity = 4096});
  auto merged = network.make_channel({.capacity = 4096});
  auto tags = network.make_channel({.capacity = 4096});
  auto prefix = network.make_channel({.capacity = 4096});
  auto index = network.make_channel({.capacity = 4096});
  auto out = network.make_channel({.capacity = 4096});
  auto sink = std::make_shared<CollectSink<std::int64_t>>();

  /// Identity with an artificial per-blob delay.
  class SlowIdentity final : public IterativeProcess {
   public:
    SlowIdentity(std::shared_ptr<ChannelInputStream> in,
                 std::shared_ptr<ChannelOutputStream> out, int delay_ms)
        : delay_ms_(delay_ms) {
      track_input(std::move(in));
      track_output(std::move(out));
    }
    std::string type_name() const override { return "test.SlowIdentity"; }
    void write_fields(serial::ObjectOutputStream&) const override {}

   protected:
    void step() override {
      io::DataInputStream in{*input(0)};
      const ByteVector blob = in.read_bytes();
      std::this_thread::sleep_for(std::chrono::milliseconds{delay_ms_});
      io::DataOutputStream out{*output(0)};
      out.write_bytes({blob.data(), blob.size()});
    }

   private:
    int delay_ms_;
  };

  std::vector<std::shared_ptr<core::ChannelOutputStream>> task_outs;
  std::vector<std::shared_ptr<core::ChannelInputStream>> result_ins;
  const int delays[] = {7, 0};  // worker 0 is much slower
  for (std::size_t i = 0; i < 2; ++i) {
    auto tasks = network.make_channel({.capacity = 4096});
    auto results = network.make_channel({.capacity = 4096});
    network.add(std::make_shared<SlowIdentity>(tasks->input(),
                                               results->output(), delays[i]));
    task_outs.push_back(tasks->output());
    result_ins.push_back(results->input());
  }

  network.add(std::make_shared<BlobSource>(in->output(), kTasks));
  network.add(std::make_shared<Turnstile>(result_ins, merged->output(),
                                          tags->output()));
  network.add(std::make_shared<Sequence>(0, prefix->output(), 2));
  network.add(std::make_shared<Cons>(prefix->input(), tags->input(),
                                     index->output()));
  network.add(std::make_shared<Direct>(in->input(), index->input(),
                                       task_outs));
  network.add(std::make_shared<Select>(merged->input(), out->output(), 2));
  network.add(std::make_shared<BlobSink>(out->input(), sink));
  network.run();

  const auto values = sink->values();
  ASSERT_EQ(values.size(), static_cast<std::size_t>(kTasks));
  for (long i = 0; i < kTasks; ++i) {
    EXPECT_EQ(values[i], i);  // task order, not completion order
  }
}

TEST(OrderedMerge, MergesAndDeduplicates) {
  Network network;
  auto a = network.make_channel({.capacity = 4096});
  auto b = network.make_channel({.capacity = 4096});
  auto out = network.make_channel({.capacity = 4096});
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  {
    io::DataOutputStream da{*a->output()};
    for (const std::int64_t v : {1, 3, 5, 7}) da.write_i64(v);
    a->output()->close();
    io::DataOutputStream db{*b->output()};
    for (const std::int64_t v : {1, 2, 3, 8}) db.write_i64(v);
    b->output()->close();
  }
  network.add(std::make_shared<OrderedMerge>(
      std::vector{a->input(), b->input()}, out->output()));
  network.add(std::make_shared<Collect>(out->input(), sink));
  network.run();
  EXPECT_EQ(sink->values(), (std::vector<std::int64_t>{1, 2, 3, 5, 7, 8}));
}

TEST(Guard, DiscardsUntilControlTrue) {
  Network network;
  auto data = network.make_channel({.capacity = 4096});
  auto control = network.make_channel({.capacity = 4096});
  auto out = network.make_channel({.capacity = 4096});
  auto sink = std::make_shared<CollectSink<double>>();
  {
    io::DataOutputStream d{*data->output()};
    for (const double v : {1.0, 2.0, 3.0, 4.0}) d.write_f64(v);
    data->output()->close();
    io::DataOutputStream c{*control->output()};
    for (const bool b : {false, false, true, false}) c.write_bool(b);
    control->output()->close();
  }
  network.add(std::make_shared<Guard>(data->input(), control->input(),
                                      out->output(), true));
  network.add(std::make_shared<CollectF64>(out->input(), sink));
  network.run();
  EXPECT_EQ(sink->values(), (std::vector<double>{3.0}));
}

TEST(Scale, MultipliesElements) {
  Network network;
  auto in = network.make_channel({.capacity = 4096});
  auto out = network.make_channel({.capacity = 4096});
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  network.add(std::make_shared<Sequence>(1, in->output(), 5));
  network.add(std::make_shared<Scale>(in->input(), out->output(), 3));
  network.add(std::make_shared<Collect>(out->input(), sink));
  network.run();
  EXPECT_EQ(sink->values(), (std::vector<std::int64_t>{3, 6, 9, 12, 15}));
}

TEST(Duplicate, ThreeCopies) {
  Network network;
  auto in = network.make_channel({.capacity = 4096});
  auto o1 = network.make_channel({.capacity = 4096});
  auto o2 = network.make_channel({.capacity = 4096});
  auto o3 = network.make_channel({.capacity = 4096});
  auto s1 = std::make_shared<CollectSink<std::int64_t>>();
  auto s2 = std::make_shared<CollectSink<std::int64_t>>();
  auto s3 = std::make_shared<CollectSink<std::int64_t>>();
  network.add(std::make_shared<Sequence>(0, in->output(), 10));
  network.add(std::make_shared<Duplicate>(
      in->input(), std::vector{o1->output(), o2->output(), o3->output()}));
  network.add(std::make_shared<Collect>(o1->input(), s1));
  network.add(std::make_shared<Collect>(o2->input(), s2));
  network.add(std::make_shared<Collect>(o3->input(), s3));
  network.run();
  EXPECT_EQ(s1->values(), s2->values());
  EXPECT_EQ(s2->values(), s3->values());
  EXPECT_EQ(s1->size(), 10u);
}

TEST(CollectSinkContract, ReadersSeeAPrefixWhileTheWriterAppends) {
  // push() takes no lock between storage growths; readers on other
  // threads must still see exactly the first size() values, in order.
  constexpr std::int64_t kValues = 1 << 20;
  CollectSink<std::int64_t> sink;
  std::atomic<bool> done{false};
  std::atomic<int> checks{0};
  std::atomic<int> ready{0};
  std::vector<std::jthread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      ready.fetch_add(1);
      std::size_t last = 0;
      while (!done.load()) {
        const std::size_t seen = sink.size();
        const std::vector<std::int64_t> values = sink.values();
        ASSERT_GE(seen, last);
        ASSERT_GE(values.size(), seen);
        for (std::size_t i = 0; i < values.size(); ++i) {
          ASSERT_EQ(values[i], static_cast<std::int64_t>(i));
        }
        last = values.size();
        checks.fetch_add(1);
      }
    });
  }
  while (ready.load() < 2) std::this_thread::yield();
  for (std::int64_t i = 0; i < kValues; ++i) sink.push(i);
  done.store(true);
  readers.clear();
  EXPECT_GT(checks.load(), 0);
  const std::vector<std::int64_t> values = sink.values();
  ASSERT_EQ(values.size(), static_cast<std::size_t>(kValues));
  for (std::int64_t i = 0; i < kValues; ++i) {
    ASSERT_EQ(values[static_cast<std::size_t>(i)], i);
  }
}

}  // namespace
}  // namespace dpn::processes
