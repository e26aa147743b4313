// Micro-benchmarks for the typed zero-copy fast path: T values moving
// through the in-process ring (core/typed.hpp) against the same traffic
// on the byte plane (encode -> channel endpoint -> pipe -> decode).
// EXPERIMENTS.md's typed-fastpath table is generated from this binary.

#include <benchmark/benchmark.h>

#include <thread>

#include "core/channel.hpp"
#include "core/typed.hpp"
#include "io/data.hpp"
#include "io/memory.hpp"

namespace {

using namespace dpn;

void BM_TypedRingRoundTrip(benchmark::State& state) {
  // One i64 producer->consumer ping through the typed endpoints: push,
  // pop, and both obs counter bumps -- the fast-path analogue of
  // BM_ChannelElementRoundTrip.
  auto channel = core::make_typed_channel<std::int64_t>({.capacity = 4096});
  core::TypedWriter<std::int64_t> writer{channel->output()};
  core::TypedReader<std::int64_t> reader{channel->input()};
  std::int64_t value = 0;
  for (auto _ : state) {
    writer.put(value);
    benchmark::DoNotOptimize(reader.get());
    ++value;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TypedRingRoundTrip);

void BM_TypedRingRoundTripDemoted(benchmark::State& state) {
  // The same ping after a demotion: typed endpoints falling back to
  // Codec-over-endpoint.  The gap to BM_TypedRingRoundTrip is exactly
  // what a migration costs the surviving local traffic.
  auto channel = core::make_typed_channel<std::int64_t>({.capacity = 4096});
  {
    io::MemoryOutputStream sink;
    channel->state()->typed->demote_into(sink);
  }
  core::TypedWriter<std::int64_t> writer{channel->output()};
  core::TypedReader<std::int64_t> reader{channel->input()};
  std::int64_t value = 0;
  for (auto _ : state) {
    writer.put(value);
    benchmark::DoNotOptimize(reader.get());
    ++value;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TypedRingRoundTripDemoted);

void BM_TypedRingWriteThroughput(benchmark::State& state) {
  // Streaming put() into a ring a background thread keeps drained --
  // the fast-path analogue of BM_ChannelWriteThroughput.
  auto channel =
      core::make_typed_channel<std::int64_t>({.capacity = 1 << 16});
  std::jthread drain{[in = channel->input()] {
    core::TypedReader<std::int64_t> reader{in};
    try {
      while (reader.get().has_value()) {
      }
    } catch (const IoError&) {
    }
  }};
  core::TypedWriter<std::int64_t> writer{channel->output()};
  std::int64_t value = 0;
  for (auto _ : state) {
    writer.put(value++);
  }
  channel->output()->close();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TypedRingWriteThroughput);

void BM_TypedRingReadThroughput(benchmark::State& state) {
  // Streaming get() from a ring a background producer keeps full -- the
  // fast-path analogue of BM_ChannelReadThroughput.
  auto channel =
      core::make_typed_channel<std::int64_t>({.capacity = 1 << 16});
  std::jthread feed{[out = channel->output()] {
    core::TypedWriter<std::int64_t> writer{out};
    try {
      for (std::int64_t i = 0;; ++i) writer.put(i);
    } catch (const IoError&) {
    }
  }};
  core::TypedReader<std::int64_t> reader{channel->input()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(reader.get());
  }
  channel->input()->close();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TypedRingReadThroughput);

void BM_ByteStreamRoundTripBaseline(benchmark::State& state) {
  // The byte-plane baseline re-measured in this binary so the table's
  // ratio comes from one run on one machine (identical to
  // BM_ChannelElementRoundTrip).
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
BENCHMARK(BM_ByteStreamRoundTripBaseline);

void BM_ByteStreamWriteThroughputBaseline(benchmark::State& state) {
  // Byte-plane streaming-write baseline (BM_ChannelWriteThroughput/0).
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
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ByteStreamWriteThroughputBaseline);

void BM_ByteStreamReadThroughputBaseline(benchmark::State& state) {
  // Byte-plane streaming-read baseline (BM_ChannelReadThroughput/0).
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
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ByteStreamReadThroughputBaseline);

}  // namespace

BENCHMARK_MAIN();
