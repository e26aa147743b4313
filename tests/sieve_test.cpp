#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "core/typed.hpp"
#include "io/pipe.hpp"
#include "processes/basic.hpp"
#include "processes/sieve.hpp"
#include "sched/scheduler.hpp"

/// The self-modifying sieves of paper Figures 7/8.  The filter chain they
/// build at run time rides typed rings, so these tests also exercise the
/// ring's park/wake path under every scheduler (labelled `typed`: the
/// tsan-typed preset race-checks them).
namespace dpn::processes {
namespace {

using core::Network;

std::vector<std::int64_t> primes_below(std::int64_t limit) {
  std::vector<std::int64_t> primes;
  for (std::int64_t candidate = 2; candidate < limit; ++candidate) {
    bool prime = true;
    for (std::int64_t p : primes) {
      if (p * p > candidate) break;
      if (candidate % p == 0) {
        prime = false;
        break;
      }
    }
    if (prime) primes.push_back(candidate);
  }
  return primes;
}

// --- Sieve of Eratosthenes (Figures 7/8) -------------------------------------

TEST(Sieve, AllPrimesBelowLimit) {
  // Termination mode 2 (Section 3.4): the Sequence stops at 100; the
  // sieve drains and every process terminates with all data consumed.
  Network network;
  auto numbers = network.make_channel({.capacity = 64, .label = "numbers"});
  auto primes = network.make_channel({.capacity = 64, .label = "primes"});
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto sift = std::make_shared<Sift>(numbers->input(), primes->output());
  network.add(std::make_shared<Sequence>(2, numbers->output(), 99));  // 2..100
  network.add(sift);
  network.add(std::make_shared<Collect>(primes->input(), sink));
  network.run();
  EXPECT_EQ(sink->values(), primes_below(101));
  EXPECT_EQ(sift->filters_inserted(), primes_below(101).size());
}

TEST(Sieve, FirstHundredPrimes) {
  // Termination mode 1: the consumer imposes the limit; the unbounded
  // Sequence upstream is killed by the close cascade.
  Network network;
  auto numbers = network.make_channel({.capacity = 256, .label = "numbers"});
  auto primes = network.make_channel({.capacity = 256, .label = "primes"});
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  network.add(std::make_shared<Sequence>(2, numbers->output()));  // unbounded
  network.add(std::make_shared<Sift>(numbers->input(), primes->output()));
  network.add(std::make_shared<Collect>(primes->input(), sink, 100));
  network.run();
  const auto expected = primes_below(542);  // first 100 primes end at 541
  ASSERT_EQ(sink->size(), 100u);
  EXPECT_EQ(sink->values(),
            std::vector<std::int64_t>(expected.begin(), expected.begin() + 100));
}

TEST(Sieve, RecursiveDefinitionMatchesIterative) {
  // Figure 7's recursive Sift: each prime spawns a Modulo and a fresh
  // Sift, and the old one steps aside.  Same primes, same order.
  Network network;
  auto numbers = network.make_channel({.capacity = 256, .label = "numbers"});
  auto primes = network.make_channel({.capacity = 256, .label = "primes"});
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  network.add(std::make_shared<Sequence>(2, numbers->output(), 199));
  network.add(
      std::make_shared<RecursiveSift>(numbers->input(), primes->output()));
  network.add(std::make_shared<Collect>(primes->input(), sink));
  network.run();
  EXPECT_EQ(sink->values(), primes_below(201));
}

TEST(Sieve, RecursiveWithConsumerLimit) {
  // Termination mode 1 through a chain of self-replaced processes.
  Network network;
  auto numbers = network.make_channel({.capacity = 256});
  auto primes = network.make_channel({.capacity = 256});
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  network.add(std::make_shared<Sequence>(2, numbers->output()));  // unbounded
  network.add(
      std::make_shared<RecursiveSift>(numbers->input(), primes->output()));
  network.add(std::make_shared<Collect>(primes->input(), sink, 40));
  network.run();
  const auto expected = primes_below(174);  // first 40 primes end at 173
  ASSERT_EQ(sink->size(), 40u);
  EXPECT_EQ(sink->values(), std::vector<std::int64_t>(expected.begin(),
                                                      expected.begin() + 40));
}

TEST(Sieve, RunsOverDemotedTypedChannels) {
  // A typed `numbers`/`primes` pair whose rings were demoted before the
  // run (what a ship cut leaves behind): the byte Sequence and Collect
  // write and read the pipes, and the sieve's typed endpoints fall back
  // to the byte path on both.
  Network network;
  auto numbers = core::make_typed_channel<std::int64_t>({.capacity = 64});
  auto primes = core::make_typed_channel<std::int64_t>({.capacity = 64});
  for (const auto& channel : {numbers, primes}) {
    io::LocalOutputStream pipe{channel->pipe()};
    channel->state()->typed->demote_into(pipe);
    network.watch(channel);
  }
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto sift = std::make_shared<Sift>(numbers->input(), primes->output());
  network.add(std::make_shared<Sequence>(2, numbers->output(), 199));
  network.add(sift);
  network.add(std::make_shared<Collect>(primes->input(), sink));
  network.run();
  EXPECT_EQ(sink->values(), primes_below(201));
  EXPECT_EQ(sift->filters_inserted(), primes_below(201).size());
}

// --- determinacy across ring capacities and schedulers ---------------------

struct SieveRun {
  std::vector<std::int64_t> primes;
  std::size_t filters = 0;
};

/// Sieves 2..limit-1 with filter channels of `capacity` bytes.
SieveRun run_sieve(bool recursive, std::size_t capacity,
                   const sched::SchedulerOptions& options,
                   std::int64_t limit) {
  Network network;
  network.set_scheduler(options);
  auto numbers = network.make_channel({.capacity = capacity});
  auto primes = network.make_channel({.capacity = capacity});
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  network.add(std::make_shared<Sequence>(2, numbers->output(), limit - 2));
  std::function<std::size_t()> filters;
  if (recursive) {
    auto sift = std::make_shared<RecursiveSift>(numbers->input(),
                                                primes->output(), capacity);
    network.add(sift);
    filters = [sift] { return sift->filters_inserted(); };
  } else {
    auto sift = std::make_shared<Sift>(numbers->input(), primes->output(),
                                       0, capacity);
    network.add(sift);
    filters = [sift] { return sift->filters_inserted(); };
  }
  network.add(std::make_shared<Collect>(primes->input(), sink));
  network.run();
  return {sink->values(), filters()};
}

void expect_determinate(bool recursive) {
  // Capacity 8 is one value: its ring rounds up to the 16-slot minimum,
  // and every insertion parks the producer almost at once.  4096 is the
  // default, where storage grows on demand well past its first block.
  constexpr std::int64_t kLimit = 1000;
  const std::vector<std::int64_t> want = primes_below(kLimit);
  std::vector<std::pair<std::string, sched::SchedulerOptions>> schedulers;
  schedulers.emplace_back("threads", sched::SchedulerOptions{});
  for (const unsigned workers : {1u, 4u}) {
    sched::SchedulerOptions options;
    options.mode = sched::SchedMode::kWorkSteal;
    options.workers = workers;
    schedulers.emplace_back("M:N x" + std::to_string(workers), options);
  }
  for (const std::size_t capacity : {8u, 128u, 4096u}) {
    for (const auto& [label, options] : schedulers) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) + ", " + label);
      const SieveRun run = run_sieve(recursive, capacity, options, kLimit);
      EXPECT_EQ(run.primes, want);
      EXPECT_EQ(run.filters, want.size());
    }
  }
}

TEST(SieveDeterminacy, IterativeAcrossCapacitiesAndSchedulers) {
  expect_determinate(false);
}

TEST(SieveDeterminacy, RecursiveAcrossCapacitiesAndSchedulers) {
  expect_determinate(true);
}

}  // namespace
}  // namespace dpn::processes
