#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <thread>

#include "core/network.hpp"
#include "dist/ship.hpp"
#include "net/mux.hpp"
#include "factor/factor.hpp"
#include "par/schema.hpp"
#include "processes/arith.hpp"
#include "processes/basic.hpp"
#include "processes/copy.hpp"
#include "processes/merge.hpp"
#include "processes/sieve.hpp"
#include "sched/scheduler.hpp"
#include "support/rng.hpp"

/// Kahn's determinacy theorem, attacked operationally: the same program
/// graph run under wildly different buffer sizes, scheduling pressure,
/// artificial jitter, and physical distribution must produce *identical*
/// channel histories.  Any divergence is a runtime bug, not noise.
namespace dpn {
namespace {

using core::Channel;
using core::MonitorOptions;
using core::Network;
using processes::Add;
using processes::Collect;
using processes::CollectSink;
using processes::Cons;
using processes::Constant;
using processes::Duplicate;
using processes::Identity;
using processes::OrderedMerge;
using processes::Scale;
using processes::Sequence;
using processes::Sift;

/// Identity with a pseudo-random per-chunk delay: injects scheduling
/// jitter without touching data.
class JitterIdentity final : public core::IterativeProcess {
 public:
  JitterIdentity(std::shared_ptr<core::ChannelInputStream> in,
                 std::shared_ptr<core::ChannelOutputStream> out,
                 std::uint64_t seed)
      : rng_(seed) {
    track_input(std::move(in));
    track_output(std::move(out));
  }
  std::string type_name() const override { return "test.JitterIdentity"; }
  void write_fields(serial::ObjectOutputStream&) const override {
    throw SerializationError{"local-only"};
  }

 protected:
  void step() override {
    std::uint8_t buffer[64];
    const std::size_t n = input(0)->read_some(buffer);
    if (n == 0) throw EndOfStream{};
    if (rng_.below(4) == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds{rng_.below(200)});
    }
    output(0)->write({buffer, n});
  }

 private:
  Xoshiro256 rng_;
};

/// A composite graph mixing a Fibonacci cycle, a sieve, and an ordered
/// merge of both streams, with jitter stages injected.  Returns the full
/// output history.
std::vector<std::int64_t> run_mixed_graph(std::size_t capacity,
                                          std::uint64_t jitter_seed) {
  Network network;
  const auto ch = [&](const char* label) {
    return network.make_channel({.capacity = capacity, .label = label});
  };

  // Fibonacci half (Figure 2).
  auto ab = ch("ab"), be = ch("be"), cd = ch("cd"), df = ch("df");
  auto ed = ch("ed"), eg = ch("eg"), fg = ch("fg"), fh = ch("fh");
  auto gb = ch("gb");
  network.add(std::make_shared<Constant>(1, ab->output(), 1));
  network.add(std::make_shared<Cons>(ab->input(), gb->input(), be->output()));
  network.add(
      std::make_shared<Duplicate>(be->input(), ed->output(), eg->output()));
  network.add(std::make_shared<Add>(eg->input(), fg->input(), gb->output()));
  network.add(std::make_shared<Constant>(1, cd->output(), 1));
  network.add(std::make_shared<Cons>(cd->input(), ed->input(), df->output()));
  network.add(
      std::make_shared<Duplicate>(df->input(), fh->output(), fg->output()));

  // Sieve half (Figure 7), scaled so its values interleave with the
  // Fibonacci numbers in the merge.
  auto numbers = ch("numbers"), primes = ch("primes"), scaled = ch("scaled");
  network.add(std::make_shared<Sequence>(2, numbers->output(), 80));
  network.add(std::make_shared<Sift>(numbers->input(), primes->output()));
  network.add(std::make_shared<Scale>(primes->input(), scaled->output(), 3));

  // Jitter both streams, then merge them deterministically.
  auto fib_jittered = ch("fibj"), sieve_jittered = ch("sievej");
  network.add(std::make_shared<JitterIdentity>(fh->input(),
                                               fib_jittered->output(),
                                               jitter_seed));
  network.add(std::make_shared<JitterIdentity>(scaled->input(),
                                               sieve_jittered->output(),
                                               jitter_seed * 31 + 7));

  auto merged = ch("merged");
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  network.add(std::make_shared<OrderedMerge>(
      std::vector{fib_jittered->input(), sieve_jittered->input()},
      merged->output()));
  network.add(std::make_shared<Collect>(merged->input(), sink, 40));

  network.enable_monitor(MonitorOptions{});
  network.run();
  return sink->values();
}

/// Closed-form oracle for the mixed graph: the OrderedMerge semantics
/// applied to the Fibonacci history and the scaled prime stream.
std::vector<std::int64_t> mixed_graph_oracle(std::size_t count) {
  std::vector<std::int64_t> fib;
  for (std::int64_t a = 1, b = 1; fib.size() < 4 * count;) {
    fib.push_back(a);
    // Wraps like processes::Add does (defined, unlike signed overflow).
    const auto next = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(a) + static_cast<std::uint64_t>(b));
    a = b;
    b = next;
  }
  std::vector<std::int64_t> sieve;
  for (std::int64_t candidate = 2; candidate <= 81; ++candidate) {
    bool prime = true;
    for (std::int64_t d = 2; d * d <= candidate; ++d) {
      if (candidate % d == 0) {
        prime = false;
        break;
      }
    }
    if (prime) sieve.push_back(3 * candidate);
  }
  // Replay OrderedMerge: emit the least head, advance every input whose
  // head equals it (inputs past their end are exhausted).
  std::vector<std::int64_t> out;
  std::size_t i = 0, j = 0;
  while (out.size() < count) {
    std::optional<std::int64_t> least;
    if (i < fib.size() && (!least || fib[i] < *least)) least = fib[i];
    if (j < sieve.size() && (!least || sieve[j] < *least)) least = sieve[j];
    if (!least) break;
    out.push_back(*least);
    if (i < fib.size() && fib[i] == *least) ++i;
    if (j < sieve.size() && sieve[j] == *least) ++j;
  }
  return out;
}

class MixedGraphDeterminacy
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(MixedGraphDeterminacy, HistoryMatchesOracle) {
  const auto [capacity, seed] = GetParam();
  const auto values = run_mixed_graph(capacity, seed);
  ASSERT_EQ(values.size(), 40u);
  EXPECT_EQ(values, mixed_graph_oracle(40))
      << "capacity " << capacity << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    CapacitiesAndSeeds, MixedGraphDeterminacy,
    ::testing::Combine(::testing::Values(16, 64, 256, 4096),
                       ::testing::Values(1u, 2u, 3u)));

TEST(Determinacy, DistributedRunMatchesLocalRun) {
  // The same three-stage pipeline, run (a) in one address space and
  // (b) split across two nodes with a socket in the middle.  Histories
  // must match element-for-element.
  const auto run_once = [](bool distributed) {
    auto node_a = dist::NodeContext::create();
    auto node_b = dist::NodeContext::create();
    auto ch1 = std::make_shared<Channel>(128);
    auto ch2 = std::make_shared<Channel>(128);
    auto ch3 = std::make_shared<Channel>(128);
    auto sink = std::make_shared<CollectSink<std::int64_t>>();

    auto source = std::make_shared<Sequence>(-50, ch1->output(), 300);
    auto stage1 = std::make_shared<Scale>(ch1->input(), ch2->output(), -7);
    std::shared_ptr<core::Process> stage2 =
        std::make_shared<Identity>(ch2->input(), ch3->output());
    auto drain = std::make_shared<Collect>(ch3->input(), sink);

    if (distributed) {
      const ByteVector shipment = dist::ship_process(node_a, stage2);
      stage2 = dist::receive_process(node_b, {shipment.data(),
                                              shipment.size()});
    }
    std::jthread t1{[&] { source->run(); }};
    std::jthread t2{[&] { stage1->run(); }};
    std::jthread t3{[&] { stage2->run(); }};
    drain->run();
    return sink->values();
  };
  const auto local = run_once(false);
  const auto remote = run_once(true);
  ASSERT_EQ(local.size(), 300u);
  EXPECT_EQ(local, remote);
}

// --- Transport x scheduler matrix -------------------------------------------
//
// Determinacy must also survive the transport substrate: the same
// distributed pipeline run over the mux transport (stream-id-tagged frames
// over one connection per host pair) under both thread-per-process and
// M:N work-stealing execution must produce byte-identical histories.

struct TransportSchedConfig {
  std::string label;
  sched::SchedulerOptions sched;
};

std::vector<TransportSchedConfig> transport_matrix() {
  sched::SchedulerOptions mn;
  mn.mode = sched::SchedMode::kWorkSteal;
  mn.workers = 2;
  return {{"mux / threads", {}}, {"mux / work-steal x2", mn}};
}

TEST(TransportMatrix, DistributedHistoryByteIdentical) {
  std::vector<std::int64_t> reference;
  for (const auto& config : transport_matrix()) {
    auto node_a = dist::NodeContext::create();
    auto node_b = dist::NodeContext::create();

    auto ch1 = std::make_shared<Channel>(128, "tm-ch1");
    auto ch2 = std::make_shared<Channel>(128, "tm-ch2");
    auto ch3 = std::make_shared<Channel>(128, "tm-ch3");
    auto sink = std::make_shared<CollectSink<std::int64_t>>();

    auto source = std::make_shared<Sequence>(-50, ch1->output(), 300);
    auto stage1 = std::make_shared<Scale>(ch1->input(), ch2->output(), -7);
    std::shared_ptr<core::Process> stage2 =
        std::make_shared<Identity>(ch2->input(), ch3->output());
    auto drain = std::make_shared<Collect>(ch3->input(), sink);

    const ByteVector shipment = dist::ship_process(node_a, stage2);
    stage2 =
        dist::receive_process(node_b, {shipment.data(), shipment.size()});

    Network host_a;
    host_a.set_scheduler(config.sched);
    host_a.add(source);
    host_a.add(stage1);
    host_a.add(drain);
    Network host_b;
    host_b.set_scheduler(config.sched);
    host_b.add(stage2);

    std::jthread remote{[&] { host_b.run(); }};
    host_a.run();
    remote.join();

    const auto values = sink->values();
    ASSERT_EQ(values.size(), 300u) << config.label;
    if (reference.empty()) {
      reference = values;
    } else {
      EXPECT_EQ(values, reference) << config.label;
    }
  }
}

// --- Scheduler matrix -------------------------------------------------------
//
// Kahn determinacy must survive the execution substrate: the same graph
// run thread-per-process and under the M:N work-stealing scheduler (at
// several worker counts) must produce byte-identical output histories.
// Steals migrate fibers between workers mid-stream, so any missing
// publication in the fiber handoff shows up here as a corrupted history.

/// One row of the scheduler matrix: a label for failure messages plus the
/// options handed to Network::set_scheduler.
struct SchedConfig {
  std::string label;
  sched::SchedulerOptions options;
};

std::vector<SchedConfig> scheduler_matrix() {
  std::vector<SchedConfig> matrix;
  matrix.push_back({"thread-per-process", {}});
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  for (const unsigned workers : {1u, 2u, nproc}) {
    sched::SchedulerOptions options;
    options.mode = sched::SchedMode::kWorkSteal;
    options.workers = workers;
    matrix.push_back(
        {"work-steal x" + std::to_string(workers), std::move(options)});
  }
  return matrix;
}

TEST(SchedulerMatrix, SieveHistoryByteIdentical) {
  // Figure 7/8 sieve: Sift inserts a Modulo filter per prime at runtime,
  // so under M:N the graph also exercises detached fiber spawns from a
  // running fiber.
  std::vector<std::int64_t> reference;
  for (const auto& config : scheduler_matrix()) {
    Network network;
    network.set_scheduler(config.options);
    auto numbers = network.make_channel({.capacity = 64, .label = "numbers"});
    auto primes = network.make_channel({.capacity = 64, .label = "primes"});
    auto sink = std::make_shared<CollectSink<std::int64_t>>();
    network.add(std::make_shared<Sequence>(2, numbers->output(), 299));
    network.add(std::make_shared<Sift>(numbers->input(), primes->output()));
    network.add(std::make_shared<Collect>(primes->input(), sink));
    network.run();
    const auto values = sink->values();
    ASSERT_FALSE(values.empty()) << config.label;
    EXPECT_EQ(values.front(), 2) << config.label;
    if (reference.empty()) {
      reference = values;
    } else {
      EXPECT_EQ(values, reference) << config.label;
    }
  }
}

TEST(SchedulerMatrix, ParallelFactorHistoryByteIdentical) {
  // Section 5.2 weak-RSA search through the meta_dynamic schema.  The
  // Turnstile arrival order varies with scheduling, but the indexed merge
  // must present results to the consumer in pipeline order regardless of
  // which substrate runs the workers.
  const auto problem = factor::FactorProblem::generate(/*seed=*/11,
                                                       /*prime_bits=*/64,
                                                       /*total_tasks=*/12);
  std::vector<std::pair<bool, std::uint64_t>> reference;
  for (const auto& config : scheduler_matrix()) {
    std::mutex mutex;
    std::vector<std::pair<bool, std::uint64_t>> seen;
    auto observer = [&](const std::shared_ptr<core::Task>& task) {
      auto result = std::dynamic_pointer_cast<factor::FactorResultTask>(task);
      ASSERT_TRUE(result);
      std::scoped_lock lock{mutex};
      seen.emplace_back(result->found, result->d_start);
    };
    auto graph = par::pipeline(
        std::make_shared<factor::FactorProducerTask>(problem.n, 12, 32,
                                                     /*announce=*/false),
        observer, [&](auto in, auto out) {
          return par::meta_dynamic(std::move(in), std::move(out), 3);
        });
    Network network;
    network.set_scheduler(config.options);
    network.add(graph);
    network.run();
    ASSERT_FALSE(seen.empty()) << config.label;
    // The winning batch reports the true difference's batch start.
    const auto hit = std::find_if(seen.begin(), seen.end(),
                                  [](const auto& r) { return r.first; });
    ASSERT_NE(hit, seen.end()) << config.label;
    EXPECT_EQ(hit->second, (problem.d_true / 64) * 64) << config.label;
    if (reference.empty()) {
      reference = seen;
    } else {
      EXPECT_EQ(seen, reference) << config.label;
    }
  }
}

TEST(SchedulerMatrix, ParCompositesHistoryByteIdentical) {
  // The static and dynamic parallel-worker schemas as nested composites
  // inside a Network: under M:N every component (Scatter, workers,
  // Gather / Direct, Turnstile, Select) becomes a sibling fiber of the
  // composite's fiber.  Output must match the plain pipeline order.
  for (const bool dynamic : {false, true}) {
    std::vector<std::pair<bool, std::uint64_t>> reference;
    const auto problem = factor::FactorProblem::generate(/*seed=*/13,
                                                         /*prime_bits=*/64,
                                                         /*total_tasks=*/8);
    for (const auto& config : scheduler_matrix()) {
      std::mutex mutex;
      std::vector<std::pair<bool, std::uint64_t>> seen;
      auto observer = [&](const std::shared_ptr<core::Task>& task) {
        auto result =
            std::dynamic_pointer_cast<factor::FactorResultTask>(task);
        ASSERT_TRUE(result);
        std::scoped_lock lock{mutex};
        seen.emplace_back(result->found, result->d_start);
      };
      auto graph = par::pipeline(
          std::make_shared<factor::FactorProducerTask>(problem.n, 8, 32,
                                                       /*announce=*/false),
          observer, [&](auto in, auto out) {
            return dynamic
                       ? par::meta_dynamic(std::move(in), std::move(out), 2)
                       : par::meta_static(std::move(in), std::move(out), 2);
          });
      Network network;
      network.set_scheduler(config.options);
      network.add(graph);
      network.run();
      const char* schema = dynamic ? "dynamic" : "static";
      ASSERT_FALSE(seen.empty()) << schema << " " << config.label;
      if (reference.empty()) {
        reference = seen;
      } else {
        EXPECT_EQ(seen, reference) << schema << " " << config.label;
      }
    }
  }
}

TEST(Determinacy, ChannelReportReflectsState) {
  Network network;
  auto ch = network.make_channel({.capacity = 64, .label = "probe"});
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  network.add(std::make_shared<Sequence>(0, ch->output(), 4));
  network.add(std::make_shared<Collect>(ch->input(), sink));
  network.run();
  const std::string report = network.channel_report();
  EXPECT_NE(report.find("probe"), std::string::npos);
  EXPECT_NE(report.find("writer closed"), std::string::npos);
}

}  // namespace
}  // namespace dpn
