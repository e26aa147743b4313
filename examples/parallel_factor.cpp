// The parallel weak-RSA-key search of paper Section 5.2: brute force the
// factorization N = P * (P + D) by scanning small even differences D,
// split into batches of 32 and distributed over parallel workers with
// on-demand (MetaDynamic) or round-robin (MetaStatic) load balancing.
//
// The heterogeneous cluster of the paper (34 CPUs in five speed classes)
// is simulated: each worker is throttled to its class speed, so the
// static-vs-dynamic behaviour of Figures 19/20 is visible on one machine.
//
//   ./parallel_factor [workers] [tasks] [prime_bits] [static|dynamic]
//                     [--trace=out.json] [--chaos[=K]]
//
// With --trace=FILE the flight recorder runs at its token level (channel
// ops, task dispatch, monitor decisions, next to the post-mortem events)
// and the run's window is exported as Chrome trace_event JSON (load in
// chrome://tracing / ui.perfetto.dev).
// With --chaos one worker is killed mid-task after K completed batches
// (default 2); the dynamic schema's recovery ledger re-issues its
// in-flight work to the survivors and the run still factors N
// (docs/FAULTS.md).  Either way it finishes by printing the
// Network::snapshot() view of the graph: per-channel traffic, blocked
// time, batching counters -- and, after a chaos run, the fault counters.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>

#include "cluster/cluster.hpp"
#include "factor/factor.hpp"
#include "fault/fault.hpp"
#include "obs/flight.hpp"
#include "par/schema.hpp"
#include "support/stopwatch.hpp"

namespace {

/// A worker that completes `crash_after` batches and then dies mid-task
/// (after reading, before replying) -- the worst spot, since the task is
/// dispatched but unacknowledged and must be re-issued by the ledger.
class ChaosWorker final : public dpn::core::IterativeProcess {
 public:
  ChaosWorker(std::shared_ptr<dpn::core::ChannelInputStream> in,
              std::shared_ptr<dpn::core::ChannelOutputStream> out,
              long crash_after)
      : crash_after_(crash_after) {
    track_input(std::move(in));
    track_output(std::move(out));
  }

  std::string type_name() const override { return "example.ChaosWorker"; }
  void write_fields(dpn::serial::ObjectOutputStream&) const override {
    throw dpn::SerializationError{"ChaosWorker is example-local"};
  }

 protected:
  void step() override {
    dpn::io::DataInputStream in{*input(0)};
    auto task = dpn::par::read_task(in);
    if (++completed_ > crash_after_) {
      throw std::runtime_error{"chaos: injected worker crash"};
    }
    auto result = task->run();
    dpn::io::DataOutputStream out{*output(0)};
    dpn::par::write_task(out, result);
  }

 private:
  long crash_after_;
  long completed_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dpn;
  const char* trace_file = nullptr;
  long chaos = -1;  // < 0: off; otherwise batches the victim completes
  for (int i = 1; i < argc;) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_file = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos = 2;
    } else if (std::strncmp(argv[i], "--chaos=", 8) == 0) {
      chaos = std::strtol(argv[i] + 8, nullptr, 10);
    } else {
      ++i;
      continue;
    }
    for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
    --argc;
  }
  const std::size_t workers = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 4;
  const std::uint64_t tasks = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 64;
  const std::size_t bits = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 96;
  const bool dynamic = argc > 4 ? std::strcmp(argv[4], "static") != 0 : true;

  const auto problem = factor::FactorProblem::generate(
      /*seed=*/2003, bits, tasks);
  std::printf("N = %s\nsearching %llu batches of 32 even differences, "
              "%zu workers, %s balancing\n",
              problem.n.to_decimal().c_str(),
              static_cast<unsigned long long>(tasks), workers,
              dynamic ? "dynamic" : "static");

  // Simulated heterogeneous fleet: fastest classes first (Table 1).
  const auto speeds = cluster::fleet_speeds();
  const double task_seconds = 0.002;  // nominal class-C cost per batch
  auto factory = cluster::throttled_factory(speeds, task_seconds);

  if (chaos >= 0) {
    if (!dynamic) {
      std::fprintf(stderr,
                   "--chaos needs the dynamic schema: only meta_dynamic "
                   "carries the recovery ledger\n");
      return 2;
    }
    // Deterministic kill: worker 1 (or 0 when it is the only one) dies
    // mid-task after `chaos` completed batches.
    const std::size_t victim = workers > 1 ? 1 : 0;
    std::printf("chaos: worker %zu will crash after %ld batches\n", victim,
                chaos);
    auto inner = factory;
    factory = [inner, victim,
               chaos](std::size_t index,
                      std::shared_ptr<core::ChannelInputStream> in,
                      std::shared_ptr<core::ChannelOutputStream> out)
        -> std::shared_ptr<core::Process> {
      if (index == victim) {
        return std::make_shared<ChaosWorker>(std::move(in), std::move(out),
                                             chaos);
      }
      return inner(index, std::move(in), std::move(out));
    };
  }

  std::mutex mutex;
  std::optional<bigint::BigInt> found;
  auto observer = [&](const std::shared_ptr<core::Task>& task) {
    auto result = std::dynamic_pointer_cast<factor::FactorResultTask>(task);
    if (result && result->found) {
      std::scoped_lock lock{mutex};
      found = result->p;
    }
  };

  if (trace_file != nullptr) {
    obs::flight_reset();  // the window holds this run only
    obs::set_flight_level(obs::FlightLevel::kTokens);
  }

  // Figure 1 built with the connect() builder: Producer -> tasks ->
  // schema -> results -> Consumer, all channels watched by the network.
  Stopwatch watch;
  core::Network network;
  std::shared_ptr<core::ChannelInputStream> tasks_in;
  network.connect(
      [&](auto out) {
        return std::make_shared<par::Producer>(
            std::make_shared<factor::FactorProducerTask>(problem.n, tasks),
            std::move(out));
      },
      [&](auto in) { tasks_in = std::move(in); },
      {.label = "pipeline.tasks"});
  network.connect(
      [&](auto out) {
        const par::SchemaOptions schema_options{.watch = &network};
        return dynamic ? par::meta_dynamic(std::move(tasks_in),
                                           std::move(out), workers, factory,
                                           schema_options)
                       : par::meta_static(std::move(tasks_in), std::move(out),
                                          workers, factory, schema_options);
      },
      [&](auto in) {
        return std::make_shared<par::Consumer>(std::move(in), 0, observer);
      },
      {.label = "pipeline.results"});
  // Write the trace on every exit path: a trace of the run that *failed*
  // is the one worth having, and an unflushed ofstream at `return 1`
  // used to leave a truncated/empty JSON behind.
  const auto write_trace = [&] {
    if (trace_file == nullptr) return;
    obs::set_flight_level(obs::FlightLevel::kPostMortem);
    const obs::FlightExport window = obs::flight_export();
    std::ofstream out{trace_file};
    out << obs::flight_chrome_json(window);
    out.close();
    std::printf("trace: %zu events written to %s (%llu dropped)\n",
                window.events.size(), trace_file,
                static_cast<unsigned long long>(window.dropped));
  };
  try {
    network.run();
  } catch (const WorkerLost& e) {
    // Single-worker chaos: nobody is left to re-issue to; fail loudly.
    std::printf("\nrun failed: %s\n", e.what());
    write_trace();
    return 1;
  }
  const double elapsed = watch.elapsed_seconds();

  // The runtime's own account of the run: per-channel traffic, blocked
  // time, batching, and per-process step counts.
  std::printf("\n-- network snapshot --\n%s\n",
              network.snapshot().to_string().c_str());

  if (chaos >= 0) {
    const auto& fs = fault::stats();
    std::printf("-- fault counters --\nworkers lost: %llu, tasks re-issued: "
                "%llu\n\n",
                static_cast<unsigned long long>(
                    fs.workers_lost.load(std::memory_order_relaxed)),
                static_cast<unsigned long long>(
                    fs.tasks_reissued.load(std::memory_order_relaxed)));
  }

  write_trace();

  if (found) {
    std::printf("factored in %.3f s:\n  P = %s (expected %s)\n", elapsed,
                found->to_decimal().c_str(), problem.p.to_decimal().c_str());
  } else {
    std::printf("no factor found in %.3f s (search space too small?)\n",
                elapsed);
    return 1;
  }
  return *found == problem.p ? 0 : 1;
}
