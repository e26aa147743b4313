#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>

#include "core/network.hpp"
#include "par/generic.hpp"
#include "par/schema.hpp"
#include "processes/basic.hpp"

namespace dpn::par {
namespace {

using processes::CollectSink;

/// Yields WorkItem tasks 0..count-1, then null.
class CountingProducerTask final : public Task {
 public:
  CountingProducerTask() = default;
  explicit CountingProducerTask(std::int64_t count) : remaining_(count) {}

  std::shared_ptr<Task> run() override;

  std::string type_name() const override { return "test.par.Producer"; }
  void write_fields(serial::ObjectOutputStream& out) const override {
    out.write_i64(next_);
    out.write_i64(remaining_);
  }
  static std::shared_ptr<CountingProducerTask> read_object(
      serial::ObjectInputStream& in) {
    auto task = std::make_shared<CountingProducerTask>();
    task->next_ = in.read_i64();
    task->remaining_ = in.read_i64();
    return task;
  }

 private:
  std::int64_t next_ = 0;
  std::int64_t remaining_ = 0;
};

/// Worker task: squares its id (with an optional artificial delay skew to
/// force out-of-order completion under dynamic balancing).
class WorkItem final : public Task {
 public:
  WorkItem() = default;
  explicit WorkItem(std::int64_t id) : id_(id) {}
  std::int64_t id() const { return id_; }

  std::shared_ptr<Task> run() override;

  std::string type_name() const override { return "test.par.WorkItem"; }
  void write_fields(serial::ObjectOutputStream& out) const override {
    out.write_i64(id_);
  }
  static std::shared_ptr<WorkItem> read_object(serial::ObjectInputStream& in) {
    auto task = std::make_shared<WorkItem>();
    task->id_ = in.read_i64();
    return task;
  }

 private:
  std::int64_t id_ = 0;
};

/// Result task: carries id and square; consumer-side run() is a no-op
/// (collection happens through the Consumer observer).
class WorkResult final : public Task {
 public:
  WorkResult() = default;
  WorkResult(std::int64_t id, std::int64_t square) : id_(id), square_(square) {}
  std::int64_t id() const { return id_; }
  std::int64_t square() const { return square_; }

  std::shared_ptr<Task> run() override { return nullptr; }
  std::string type_name() const override { return "test.par.WorkResult"; }
  void write_fields(serial::ObjectOutputStream& out) const override {
    out.write_i64(id_);
    out.write_i64(square_);
  }
  static std::shared_ptr<WorkResult> read_object(
      serial::ObjectInputStream& in) {
    auto task = std::make_shared<WorkResult>();
    task->id_ = in.read_i64();
    task->square_ = in.read_i64();
    return task;
  }

 private:
  std::int64_t id_ = 0;
  std::int64_t square_ = 0;
};

std::shared_ptr<Task> CountingProducerTask::run() {
  if (remaining_ == 0) return nullptr;
  --remaining_;
  return std::make_shared<WorkItem>(next_++);
}

std::shared_ptr<Task> WorkItem::run() {
  // Odd-numbered tasks are slow: under dynamic balancing results complete
  // out of order, exercising the reordering machinery.
  if (id_ % 2 == 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds{2});
  }
  return std::make_shared<WorkResult>(id_, id_ * id_);
}

[[maybe_unused]] const bool kRegistered =
    serial::register_type<CountingProducerTask>("test.par.Producer") &&
    serial::register_type<WorkItem>("test.par.WorkItem") &&
    serial::register_type<WorkResult>("test.par.WorkResult");

/// Runs producer -> stage -> consumer and returns observed result ids (in
/// consumer order) and squares.
std::vector<std::pair<std::int64_t, std::int64_t>> run_schema(
    std::int64_t tasks,
    const std::function<std::shared_ptr<core::Process>(
        std::shared_ptr<core::ChannelInputStream>,
        std::shared_ptr<core::ChannelOutputStream>)>& make_stage) {
  std::mutex mutex;
  std::vector<std::pair<std::int64_t, std::int64_t>> seen;
  auto observer = [&](const std::shared_ptr<Task>& task) {
    auto result = std::dynamic_pointer_cast<WorkResult>(task);
    ASSERT_TRUE(result);
    std::scoped_lock lock{mutex};
    seen.emplace_back(result->id(), result->square());
  };
  auto graph = pipeline(std::make_shared<CountingProducerTask>(tasks),
                        observer, make_stage);
  graph->run();
  return seen;
}

TEST(Pipeline, SingleWorker) {
  const auto seen = run_schema(32, [](auto in, auto out) {
    return std::make_shared<Worker>(std::move(in), std::move(out));
  });
  ASSERT_EQ(seen.size(), 32u);
  for (std::int64_t i = 0; i < 32; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)].first, i);
    EXPECT_EQ(seen[static_cast<std::size_t>(i)].second, i * i);
  }
}

class SchemaEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SchemaEquivalence, StaticMatchesPipelineOrder) {
  const std::size_t workers = GetParam();
  const auto seen = run_schema(40, [&](auto in, auto out) {
    return meta_static(std::move(in), std::move(out), workers);
  });
  ASSERT_EQ(seen.size(), 40u);
  for (std::int64_t i = 0; i < 40; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)].first, i);
    EXPECT_EQ(seen[static_cast<std::size_t>(i)].second, i * i);
  }
}

TEST_P(SchemaEquivalence, DynamicMatchesPipelineOrder) {
  // The paper's key claim for MetaDynamic (Section 5): despite the
  // non-determinate Turnstile, results reach the consumer in exactly the
  // pipeline order.
  const std::size_t workers = GetParam();
  const auto seen = run_schema(40, [&](auto in, auto out) {
    return meta_dynamic(std::move(in), std::move(out), workers);
  });
  ASSERT_EQ(seen.size(), 40u);
  for (std::int64_t i = 0; i < 40; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)].first, i);
    EXPECT_EQ(seen[static_cast<std::size_t>(i)].second, i * i);
  }
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, SchemaEquivalence,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(Schema, DynamicRepeatedRunsIdentical) {
  // Determinacy stress: arrival order varies run to run; output must not.
  std::vector<std::pair<std::int64_t, std::int64_t>> reference;
  for (int round = 0; round < 5; ++round) {
    const auto seen = run_schema(30, [&](auto in, auto out) {
      return meta_dynamic(std::move(in), std::move(out), 4);
    });
    if (round == 0) {
      reference = seen;
    } else {
      EXPECT_EQ(seen, reference);
    }
  }
}

TEST(Schema, ZeroWorkersRejected) {
  auto ch1 = std::make_shared<core::Channel>(64);
  auto ch2 = std::make_shared<core::Channel>(64);
  EXPECT_THROW(meta_static(ch1->input(), ch2->output(), 0), UsageError);
  EXPECT_THROW(meta_dynamic(ch1->input(), ch2->output(), 0), UsageError);
}

// --- Data-dependent termination (StopSignal) ------------------------------------

/// Consumer task that stops the network once it sees id == threshold.
class StopAtTask final : public Task {
 public:
  StopAtTask() = default;
  StopAtTask(std::int64_t id, std::int64_t threshold)
      : id_(id), threshold_(threshold) {}

  std::shared_ptr<Task> run() override {
    if (id_ >= threshold_) return std::make_shared<StopSignal>();
    return nullptr;
  }
  std::string type_name() const override { return "test.par.StopAt"; }
  void write_fields(serial::ObjectOutputStream& out) const override {
    out.write_i64(id_);
    out.write_i64(threshold_);
  }
  static std::shared_ptr<StopAtTask> read_object(
      serial::ObjectInputStream& in) {
    auto task = std::make_shared<StopAtTask>();
    task->id_ = in.read_i64();
    task->threshold_ = in.read_i64();
    return task;
  }

 private:
  std::int64_t id_ = 0;
  std::int64_t threshold_ = 0;
};

/// Worker item that yields StopAtTask results.
class StopItem final : public Task {
 public:
  StopItem() = default;
  explicit StopItem(std::int64_t id) : id_(id) {}
  std::shared_ptr<Task> run() override {
    return std::make_shared<StopAtTask>(id_, 10);
  }
  std::string type_name() const override { return "test.par.StopItem"; }
  void write_fields(serial::ObjectOutputStream& out) const override {
    out.write_i64(id_);
  }
  static std::shared_ptr<StopItem> read_object(serial::ObjectInputStream& in) {
    auto task = std::make_shared<StopItem>();
    task->id_ = in.read_i64();
    return task;
  }

 private:
  std::int64_t id_ = 0;
};

/// Producer yielding an endless stream of StopItems.
class EndlessProducer final : public Task {
 public:
  std::shared_ptr<Task> run() override {
    return std::make_shared<StopItem>(next_++);
  }
  std::string type_name() const override { return "test.par.Endless"; }
  void write_fields(serial::ObjectOutputStream& out) const override {
    out.write_i64(next_);
  }
  static std::shared_ptr<EndlessProducer> read_object(
      serial::ObjectInputStream& in) {
    auto task = std::make_shared<EndlessProducer>();
    task->next_ = in.read_i64();
    return task;
  }

 private:
  std::int64_t next_ = 0;
};

[[maybe_unused]] const bool kStopRegistered =
    serial::register_type<StopAtTask>("test.par.StopAt") &&
    serial::register_type<StopItem>("test.par.StopItem") &&
    serial::register_type<EndlessProducer>("test.par.Endless");

TEST(Consumer, StopSignalTerminatesEndlessNetwork) {
  // The factor-search pattern: an unbounded producer, terminated by the
  // consumer the moment a result asks to stop (Section 5.2).
  int results_seen = 0;
  auto graph = pipeline(
      std::make_shared<EndlessProducer>(),
      [&](const std::shared_ptr<Task>&) { ++results_seen; },
      [](auto in, auto out) {
        return meta_dynamic(std::move(in), std::move(out), 3);
      });
  graph->run();  // must terminate
  EXPECT_GE(results_seen, 11);  // ids 0..10 at least reached the consumer
}

TEST(Tasks, BlobCodecRoundTrip) {
  auto channel = std::make_shared<core::Channel>(4096);
  io::DataOutputStream out{*channel->output()};
  io::DataInputStream in{*channel->input()};
  write_task(out, std::make_shared<WorkItem>(17));
  write_task(out, nullptr);
  auto restored = std::dynamic_pointer_cast<WorkItem>(read_task(in));
  ASSERT_TRUE(restored);
  EXPECT_EQ(restored->id(), 17);
  EXPECT_EQ(read_task(in), nullptr);
}

}  // namespace
}  // namespace dpn::par
