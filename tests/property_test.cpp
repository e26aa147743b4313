#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/network.hpp"
#include "io/data.hpp"
#include "io/memory.hpp"
#include "processes/basic.hpp"
#include "processes/merge.hpp"
#include "processes/router.hpp"
#include "support/rng.hpp"

/// Randomized property sweeps over the process library: components are
/// driven with generated inputs and compared against plain-code oracles.
namespace dpn::processes {
namespace {

using core::Network;

/// Feeds pre-serialized i64s into a channel from a vector, then closes.
void fill_channel(const std::shared_ptr<core::Channel>& channel,
                  const std::vector<std::int64_t>& values) {
  io::DataOutputStream out{*channel->output()};
  for (const std::int64_t v : values) out.write_i64(v);
  channel->output()->close();
}

/// Sorted non-decreasing random stream.
std::vector<std::int64_t> random_sorted(Xoshiro256& rng, std::size_t max_len,
                                        bool strictly_increasing) {
  std::vector<std::int64_t> out;
  std::int64_t value = static_cast<std::int64_t>(rng.below(10));
  const std::size_t len = rng.below(max_len + 1);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(value);
    value += static_cast<std::int64_t>(
        strictly_increasing ? 1 + rng.below(5) : rng.below(5));
  }
  return out;
}

class MergeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MergeFuzz, MatchesSortedUnionOracle) {
  Xoshiro256 rng{GetParam()};
  for (int round = 0; round < 20; ++round) {
    const std::size_t n_inputs = 2 + rng.below(4);  // 2..5 inputs
    std::vector<std::vector<std::int64_t>> streams;
    std::set<std::int64_t> expected_set;
    for (std::size_t i = 0; i < n_inputs; ++i) {
      streams.push_back(random_sorted(rng, 40, /*strictly=*/true));
      expected_set.insert(streams.back().begin(), streams.back().end());
    }

    Network network;
    std::vector<std::shared_ptr<core::ChannelInputStream>> ins;
    for (const auto& stream : streams) {
      auto channel = network.make_channel({.capacity = 4096});
      fill_channel(channel, stream);
      ins.push_back(channel->input());
    }
    auto out = network.make_channel({.capacity = 4096});
    auto sink = std::make_shared<CollectSink<std::int64_t>>();
    network.add(std::make_shared<OrderedMerge>(ins, out->output(),
                                               /*eliminate_duplicates=*/true));
    network.add(std::make_shared<Collect>(out->input(), sink));
    network.run();

    const std::vector<std::int64_t> expected{expected_set.begin(),
                                             expected_set.end()};
    EXPECT_EQ(sink->values(), expected) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeFuzz, ::testing::Values(11, 22, 33, 44));

class RouteFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RouteFuzz, PartitionIsExactAndOrdered) {
  Xoshiro256 rng{GetParam()};
  for (int round = 0; round < 20; ++round) {
    const std::int64_t divisor = 2 + static_cast<std::int64_t>(rng.below(9));
    std::vector<std::int64_t> values;
    const std::size_t len = rng.below(100);
    for (std::size_t i = 0; i < len; ++i) {
      values.push_back(static_cast<std::int64_t>(rng.below(1000)) - 500);
    }

    Network network;
    auto in = network.make_channel({.capacity = 4096});
    auto hit = network.make_channel({.capacity = 4096});
    auto miss = network.make_channel({.capacity = 4096});
    fill_channel(in, values);
    auto hit_sink = std::make_shared<CollectSink<std::int64_t>>();
    auto miss_sink = std::make_shared<CollectSink<std::int64_t>>();
    network.add(std::make_shared<RouteByDivisibility>(
        in->input(), hit->output(), miss->output(), divisor));
    network.add(std::make_shared<Collect>(hit->input(), hit_sink));
    network.add(std::make_shared<Collect>(miss->input(), miss_sink));
    network.run();

    std::vector<std::int64_t> expected_hit, expected_miss;
    for (const std::int64_t v : values) {
      (v % divisor == 0 ? expected_hit : expected_miss).push_back(v);
    }
    EXPECT_EQ(hit_sink->values(), expected_hit);
    EXPECT_EQ(miss_sink->values(), expected_miss);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteFuzz, ::testing::Values(5, 6, 7));

ByteVector random_blob(Xoshiro256& rng, std::size_t max_len) {
  ByteVector blob(rng.below(max_len + 1));
  for (auto& b : blob) b = static_cast<std::uint8_t>(rng.next());
  return blob;
}

class ScatterGatherFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScatterGatherFuzz, RoundRobinIsIdentityOnBlobs) {
  // Property: Scatter -> (per-lane Identity) -> Gather is the identity on
  // any blob sequence whose length is a multiple of the lane count, for
  // any worker count and blob sizes (including empty blobs).
  Xoshiro256 rng{GetParam()};
  for (int round = 0; round < 10; ++round) {
    const std::size_t lanes = 1 + rng.below(6);
    const std::size_t cycles = rng.below(20);
    std::vector<ByteVector> blobs;
    for (std::size_t i = 0; i < lanes * cycles; ++i) {
      blobs.push_back(random_blob(rng, 200));
    }

    Network network;
    auto in = network.make_channel({.capacity = 1 << 16});
    auto out = network.make_channel({.capacity = 1 << 16});
    {
      io::DataOutputStream writer{*in->output()};
      for (const auto& blob : blobs) {
        writer.write_bytes({blob.data(), blob.size()});
      }
      in->output()->close();
    }
    std::vector<std::shared_ptr<core::ChannelOutputStream>> task_outs;
    std::vector<std::shared_ptr<core::ChannelInputStream>> result_ins;
    for (std::size_t i = 0; i < lanes; ++i) {
      auto lane = network.make_channel({.capacity = 1 << 16});
      task_outs.push_back(lane->output());
      result_ins.push_back(lane->input());
    }
    network.add(std::make_shared<Scatter>(in->input(), task_outs));
    network.add(std::make_shared<Gather>(result_ins, out->output()));
    network.start();

    io::DataInputStream reader{*out->input()};
    for (std::size_t i = 0; i < blobs.size(); ++i) {
      EXPECT_EQ(reader.read_bytes(), blobs[i]) << "blob " << i;
    }
    out->input()->close();
    network.join();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScatterGatherFuzz,
                         ::testing::Values(100, 200));

class SelectFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SelectFuzz, ReordersAnyArrivalOrderToTaskOrder) {
  // Drive Select directly with a synthetic arrival-order pair stream and
  // verify it reconstructs task order, for random worker counts and
  // random (valid) completion interleavings.
  Xoshiro256 rng{GetParam()};
  for (int round = 0; round < 20; ++round) {
    const std::size_t workers = 1 + rng.below(5);
    const std::size_t tasks = workers + rng.below(40);

    // Simulate the dispatch/completion dynamics: worker w holds a FIFO of
    // assigned tasks; each completion is a random worker with work
    // pending, which then receives the next undispatched task.
    std::vector<std::vector<std::size_t>> assigned(workers);
    std::size_t next_task = 0;
    for (; next_task < std::min(workers, tasks); ++next_task) {
      assigned[next_task].push_back(next_task);
    }
    struct Arrival {
      std::size_t worker;
      std::size_t task;
    };
    std::vector<Arrival> arrivals;
    std::vector<std::size_t> heads(workers, 0);
    while (arrivals.size() < tasks) {
      std::size_t w = rng.below(workers);
      bool found = false;
      for (std::size_t probe = 0; probe < workers; ++probe) {
        const std::size_t candidate = (w + probe) % workers;
        if (heads[candidate] < assigned[candidate].size()) {
          w = candidate;
          found = true;
          break;
        }
      }
      ASSERT_TRUE(found);
      arrivals.push_back({w, assigned[w][heads[w]++]});
      if (next_task < tasks) assigned[w].push_back(next_task++);
    }

    Network network;
    auto pairs = network.make_channel({.capacity = 1 << 16});
    auto out = network.make_channel({.capacity = 1 << 16});
    {
      io::DataOutputStream writer{*pairs->output()};
      for (const Arrival& arrival : arrivals) {
        writer.write_i64(static_cast<std::int64_t>(arrival.worker));
        // The blob payload encodes the task id.
        auto sink = std::make_shared<io::MemoryOutputStream>();
        io::DataOutputStream blob{*sink};
        blob.write_i64(static_cast<std::int64_t>(arrival.task));
        const ByteVector bytes = sink->take();
        writer.write_bytes({bytes.data(), bytes.size()});
      }
      pairs->output()->close();
    }
    network.add(std::make_shared<Select>(pairs->input(), out->output(),
                                         workers));
    network.start();

    io::DataInputStream reader{*out->input()};
    for (std::size_t expected = 0; expected < tasks; ++expected) {
      const ByteVector blob = reader.read_bytes();
      io::MemoryInputStream source{blob};
      io::DataInputStream decoder{source};
      EXPECT_EQ(decoder.read_i64(), static_cast<std::int64_t>(expected));
    }
    out->input()->close();
    network.join();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectFuzz, ::testing::Values(300, 301));

}  // namespace
}  // namespace dpn::processes
