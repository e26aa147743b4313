// Scaling curve for the mux transport (DESIGN.md section 8): N logical
// channels between one host pair, thread vs M:N scheduler.
//
// Each configuration ships N unbounded-side producers from node A to
// node B (so B dials back over the shared connection) and streams a
// fixed total volume of i64 values split evenly across the channels.
// The timed phase covers data movement only -- shipping, dial-backs and
// stream handshakes happen before the clock starts.
//
// What the table is expected to show (EXPERIMENTS.md): every row runs on
// ONE connection per host pair (the `conns` column prints the live
// connection count), so the width is bounded by memory and the
// scheduler, not by descriptors; thread-per-process refuses rows above
// its thread cap, and the M:N rows carry the 50k-channel sweep.
//
// Runs in a forked child per configuration so a refused scheduler cannot
// poison the next row.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "core/network.hpp"
#include "dist/node.hpp"
#include "dist/ship.hpp"
#include "net/mux.hpp"
#include "processes/basic.hpp"
#include "processes/copy.hpp"
#include "sched/scheduler.hpp"
#include "support/error.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace dpn;

constexpr long kTotalValues = 1'000'000;  // split across the channels
constexpr std::size_t kCapacity = 256;

struct Outcome {
  bool completed = false;
  bool refused = false;  // scheduler thread cap
  double seconds = 0.0;
  std::uint64_t connections = 0;  // mux: live shared connections
};

long fd_limit() {
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) != 0) return -1;
  return static_cast<long>(lim.rlim_cur);
}

/// Runs one configuration.  Called in a forked child: node contexts and
/// the mux event loops are all process-local.
Outcome run_config(std::size_t channels, sched::SchedulerOptions sched) {
  Outcome outcome;
  const long per_channel = std::max<long>(1, kTotalValues / channels);

  if (sched.mode == sched::SchedMode::kThreadPerProcess &&
      channels + 1 > sched::SchedulerOptions::kDefaultThreadCap) {
    outcome.refused = true;  // skip the 50k-thread build entirely
    return outcome;
  }
  auto node_a = dist::NodeContext::create();
  auto node_b = dist::NodeContext::create();

  core::Network consumers;  // node A: drains
  core::Network producers;  // node B: shipped sources
  consumers.set_scheduler(sched);
  producers.set_scheduler(sched);

  std::vector<std::shared_ptr<processes::CollectSink<std::int64_t>>> sinks;
  sinks.reserve(channels);
  for (std::size_t i = 0; i < channels; ++i) {
    auto ch = std::make_shared<core::Channel>(kCapacity);
    auto sink = std::make_shared<processes::CollectSink<std::int64_t>>();
    auto source = std::make_shared<processes::Sequence>(
        static_cast<std::int64_t>(i), ch->output(), per_channel);
    consumers.add(std::make_shared<processes::Collect>(ch->input(), sink));
    sinks.push_back(std::move(sink));

    // Shipping moves the output endpoint to node B, which dials back to
    // node A: one logical stream on the shared connection.
    const ByteVector shipment = dist::ship_process(node_a, source);
    producers.add(
        dist::receive_process(node_b, {shipment.data(), shipment.size()}));
  }

  Stopwatch watch;
  try {
    std::jthread remote{[&] { producers.run(); }};
    consumers.run();
    remote.join();
  } catch (const UsageError&) {
    outcome.refused = true;
    return outcome;
  }
  outcome.seconds = watch.elapsed_seconds();

  outcome.completed = true;
  for (const auto& sink : sinks) {
    if (sink->values().size() != static_cast<std::size_t>(per_channel)) {
      outcome.completed = false;
    }
  }
  outcome.connections = net::mux_stats().connections;
  return outcome;
}

Outcome run_isolated(std::size_t channels, sched::SchedulerOptions sched) {
  int fds[2];
  if (pipe(fds) != 0) throw IoError{"bench pipe failed"};
  const pid_t child = fork();
  if (child == 0) {
    close(fds[0]);
    const Outcome outcome = run_config(channels, sched);
    ssize_t ignored = write(fds[1], &outcome, sizeof outcome);
    (void)ignored;
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  Outcome outcome;
  const ssize_t got = read(fds[0], &outcome, sizeof outcome);
  close(fds[0]);
  int status = 0;
  waitpid(child, &status, 0);
  if (got != static_cast<ssize_t>(sizeof outcome)) {
    outcome = {};  // child died before reporting
  }
  return outcome;
}

void print_row(std::size_t channels, const char* scheduler,
               const Outcome& outcome) {
  std::printf("%8zu  %-11s", channels, scheduler);
  if (outcome.refused) {
    std::printf("  %10s\n", "refused");
  } else if (!outcome.completed) {
    std::printf("  %10s\n", "FAILED");
  } else {
    const double mvals =
        static_cast<double>(kTotalValues) / outcome.seconds / 1e6;
    std::printf("  %9.3fs  %8.2f Mval/s", outcome.seconds, mvals);
    if (outcome.connections > 0) {
      std::printf("  %4llu conns",
                  static_cast<unsigned long long>(outcome.connections));
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

}  // namespace

int main() {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::printf("mux_scale: %ld values split over N channels, one host pair "
              "(%u hardware threads, fd limit %ld)\n\n",
              kTotalValues, nproc, fd_limit());
  std::printf("%8s  %-11s  %10s\n", "channels", "scheduler", "wall");

  sched::SchedulerOptions threads;  // kThreadPerProcess default
  sched::SchedulerOptions fibers;
  fibers.mode = sched::SchedMode::kWorkSteal;
  fibers.workers = nproc;
  fibers.stack_kb = 32;

  for (const std::size_t channels : {100u, 1000u, 10000u, 50000u}) {
    print_row(channels, "threads", run_isolated(channels, threads));
    print_row(channels, "work-steal", run_isolated(channels, fibers));
  }
  return 0;
}
