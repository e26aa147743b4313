// Overhead of the observability layer on the channel fast-path
// microbenchmarks.  The per-channel metrics are always on (relaxed
// atomics in the endpoint hot path); the flight recorder adds one relaxed
// load + predictable branch per op at its default post-mortem level and
// a store into the thread's ring at its token level.  The acceptance bar
// is <=3% on the write/read throughput and round-trip numbers vs
// micro_channels before the obs layer existed -- compare against
// EXPERIMENTS.md.
//
// Each benchmark here exists twice: the plain name runs at the default
// post-mortem level, the *Traced variant at the token level, which
// bounds the cost of recording every token in production.

#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <optional>
#include <thread>
#include <vector>

#include "core/channel.hpp"
#include "core/network.hpp"
#include "core/process.hpp"
#include "io/data.hpp"
#include "io/memory.hpp"
#include "net/mux.hpp"
#include "obs/flight.hpp"

namespace {

using namespace dpn;

using obs::FlightLevel;

/// Per-element streaming write cost (arg 0 keeps the rows' names in the
/// ledger from before the buffered endpoints were removed).
void write_throughput(benchmark::State& state, FlightLevel level) {
  obs::set_flight_level(level);
  core::Channel channel{std::size_t{1} << 16};
  std::jthread drain{[in = channel.input()] {
    ByteVector buffer(1 << 16);
    try {
      while (in->read_some({buffer.data(), buffer.size()}) > 0) {
      }
    } catch (const IoError&) {
    }
  }};
  io::DataOutputStream out{*channel.output()};
  std::int64_t value = 0;
  for (auto _ : state) {
    out.write_i64(value++);
  }
  channel.output()->close();
  obs::set_flight_level(FlightLevel::kPostMortem);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_ObsWriteThroughput(benchmark::State& state) {
  write_throughput(state, FlightLevel::kPostMortem);
}
BENCHMARK(BM_ObsWriteThroughput)->Arg(0);

void BM_ObsWriteThroughputTraced(benchmark::State& state) {
  write_throughput(state, FlightLevel::kTokens);
}
BENCHMARK(BM_ObsWriteThroughputTraced)->Arg(0);

/// Per-element streaming read cost (arg 0 as for write_throughput).
void read_throughput(benchmark::State& state, FlightLevel level) {
  obs::set_flight_level(level);
  core::Channel channel{std::size_t{1} << 16};
  std::jthread feed{[out = channel.output()] {
    io::DataOutputStream data{*out};
    try {
      for (std::int64_t i = 0;; ++i) data.write_i64(i);
    } catch (const IoError&) {
    }
  }};
  io::DataInputStream in{*channel.input()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(in.read_i64());
  }
  channel.input()->close();
  obs::set_flight_level(FlightLevel::kPostMortem);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_ObsReadThroughput(benchmark::State& state) {
  read_throughput(state, FlightLevel::kPostMortem);
}
BENCHMARK(BM_ObsReadThroughput)->Arg(0);

void BM_ObsReadThroughputTraced(benchmark::State& state) {
  read_throughput(state, FlightLevel::kTokens);
}
BENCHMARK(BM_ObsReadThroughputTraced)->Arg(0);

/// The wire-path delta of causal context propagation: a plain DATA frame
/// vs a DATA_TRACED frame (ambient context lookup + 17-byte TraceContext
/// prefix, kept per write by the sender and adopted by the reader) on a
/// loopback mux stream pair, drained by a reader thread.  This is the
/// per-write cost a remote channel pays at the token level; below it the
/// traced path is never taken, and with DPN_FLIGHT=0 it compiles out.
/// arg = payload bytes per write.  Real time is the writer's, so the
/// drain keeps up only while the window has room.
void stream_write(benchmark::State& state, bool traced) {
  obs::set_flight_level(traced ? FlightLevel::kTokens
                              : FlightLevel::kPostMortem);
  if (traced) {
    auto& ambient = obs::current_trace_context();
    ambient.trace_id = obs::new_trace_id();
    ambient.span_id = obs::next_span_id();
    ambient.flags = obs::TraceContext::kSampled;
  }
  auto listener = net::listen(0);
  auto client = net::dial("127.0.0.1", listener->port());
  auto server = listener->accept();
  std::jthread drain{[server] {
    ByteVector buffer(1 << 16);
    try {
      while (server->read_some({buffer.data(), buffer.size()}) > 0) {
      }
    } catch (const IoError&) {
    }
  }};
  const auto size = static_cast<std::size_t>(state.range(0));
  const ByteVector payload(size, 0x5A);
  for (auto _ : state) {
    client->write_all({payload.data(), payload.size()});
  }
  client->shutdown_write();  // the drain reads end-of-stream and stops
  drain.join();
  obs::set_flight_level(FlightLevel::kPostMortem);
  obs::current_trace_context() = {};
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}

void BM_ObsStreamWrite(benchmark::State& state) {
  stream_write(state, /*traced=*/false);
}
BENCHMARK(BM_ObsStreamWrite)->Arg(256)->Arg(1024)->Arg(4096)->Arg(8192);

void BM_ObsStreamWriteWithContext(benchmark::State& state) {
  stream_write(state, /*traced=*/true);
}
BENCHMARK(BM_ObsStreamWriteWithContext)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(8192);

/// One flight-recorder event: the cost paid at a park/block/dial site
/// at the default level.  Not a fast-path cost -- those sites already
/// block -- but it is also what each token costs at the token level.
void BM_FlightRecord(benchmark::State& state) {
  obs::set_flight_level(FlightLevel::kPostMortem);
  obs::flight_set_actor("bench");
  std::uint64_t i = 0;
  for (auto _ : state) {
    obs::flight_record(obs::FlightKind::kSchedPark, i++, 0);
  }
  obs::flight_reset();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FlightRecord);

/// The same site with the level at kOff: one relaxed load + predictable
/// branch.  With DPN_FLIGHT=0 the call compiles to nothing (build
/// -DDPN_FLIGHT_RECORDER=OFF to get that row).
void BM_FlightRecordDisabled(benchmark::State& state) {
  obs::set_flight_level(FlightLevel::kOff);
  std::uint64_t i = 0;
  for (auto _ : state) {
    obs::flight_record(obs::FlightKind::kSchedPark, i++, 0);
  }
  obs::set_flight_level(FlightLevel::kPostMortem);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FlightRecordDisabled);

/// The acceptance A/B for the always-on recorder: the channel fast path
/// at the default level vs kOff.  Below the token level the fast path
/// records nothing -- events only happen at wait sites -- so the delta
/// must stay within noise (<=2%, EXPERIMENTS.md).
void BM_ObsWriteThroughputFlightOff(benchmark::State& state) {
  write_throughput(state, FlightLevel::kOff);
}
BENCHMARK(BM_ObsWriteThroughputFlightOff)->Arg(0)->Arg(8192);

/// Single-element ping through full channel endpoints.
void BM_ObsElementRoundTrip(benchmark::State& state) {
  obs::set_flight_level(FlightLevel::kPostMortem);
  core::Channel channel{4096};
  io::DataOutputStream out{*channel.output()};
  io::DataInputStream in{*channel.input()};
  std::int64_t value = 0;
  for (auto _ : state) {
    out.write_i64(value);
    benchmark::DoNotOptimize(in.read_i64());
    ++value;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsElementRoundTrip);

/// Cost of taking a structured snapshot of a graph with arg channels --
/// what the deadlock monitor pays per poll and a STATS request per call.
void BM_NetworkSnapshot(benchmark::State& state) {
  core::Network network;
  const auto n_channels = static_cast<std::size_t>(state.range(0));
  std::vector<std::shared_ptr<core::Channel>> channels;
  channels.reserve(n_channels);
  for (std::size_t i = 0; i < n_channels; ++i) {
    channels.push_back(network.make_channel(
        {.capacity = 4096, .label = "bench." + std::to_string(i)}));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(network.snapshot().channels.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n_channels));
}
BENCHMARK(BM_NetworkSnapshot)->Arg(16)->Arg(256);

class EmptyStep final : public core::IterativeProcess {
 public:
  explicit EmptyStep(long iterations) : IterativeProcess(iterations) {}
  std::string type_name() const override { return "bench.EmptyStep"; }
  void write_fields(serial::ObjectOutputStream&) const override {}

 protected:
  void step() override {}
};

/// The per-step words of processes created one after another: 4
/// EmptyStep processes, each running empty steps on its own thread.  As
/// in micro_channels' BM_IterativeStepLoop the process objects live on
/// this thread's stack, side by side, and their stats (obs::ProcessStats)
/// are the only allocations, so the allocator places those side by side
/// too.  Each step bumps its own process's step counter and budget, so a
/// word that shares a cache line with a neighbour's pays a coherence miss
/// per step.  ns_per_step is the wall time per step of one process, to
/// compare with BM_IterativeStepLoop/0 (one process, no neighbour).
void BM_ObsStepLoopNeighbours(benchmark::State& state) {
  constexpr int kProcesses = 4;
  constexpr long kSteps = 1 << 18;
  double ns = 0;
  for (auto _ : state) {
    std::array<std::optional<EmptyStep>, kProcesses> processes;
    for (auto& process : processes) process.emplace(kSteps);
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::jthread> threads;
    for (auto& process : processes) {
      threads.emplace_back([&ready, &go, &process] {
        ready.fetch_add(1);
        while (!go.load()) std::this_thread::yield();
        process->run();
      });
    }
    while (ready.load() < kProcesses) std::this_thread::yield();
    const auto start = std::chrono::steady_clock::now();
    go.store(true);
    threads.clear();
    ns += std::chrono::duration<double, std::nano>(
              std::chrono::steady_clock::now() - start)
              .count();
  }
  const auto steps = static_cast<double>(state.iterations()) * kSteps;
  state.SetItemsProcessed(static_cast<std::int64_t>(steps) * kProcesses);
  state.counters["ns_per_step"] = ns / steps;
}
BENCHMARK(BM_ObsStepLoopNeighbours)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
