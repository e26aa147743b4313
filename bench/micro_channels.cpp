// Micro-benchmarks for the channel stack of paper Section 3.1 (Figure 3):
// raw pipe throughput, the cost of each stream layer, element round-trips
// through full channel endpoints, and the local-pipe vs TCP-socket
// transport gap that distribution pays for.

#include <benchmark/benchmark.h>

#include <chrono>
#include <thread>

#include "core/channel.hpp"
#include "core/network.hpp"
#include "core/process.hpp"
#include "dist/node.hpp"
#include "dist/ship.hpp"
#include "io/blocking.hpp"
#include "io/data.hpp"
#include "io/memory.hpp"
#include "io/pipe.hpp"
#include "io/sequence.hpp"
#include "net/socket.hpp"
#include "net/mux.hpp"
#include "processes/basic.hpp"

namespace {

using namespace dpn;

void BM_PipeThroughput(benchmark::State& state) {
  const std::size_t chunk = static_cast<std::size_t>(state.range(0));
  auto pipe = std::make_shared<io::Pipe>(1 << 16);
  ByteVector data(chunk, 0xab);
  ByteVector sink(chunk);
  std::jthread reader{[&, pipe] {
    ByteVector buffer(chunk);
    try {
      for (;;) {
        std::size_t got = pipe->read_some({buffer.data(), buffer.size()});
        if (got == 0) return;
      }
    } catch (const IoError&) {
    }
  }};
  for (auto _ : state) {
    pipe->write({data.data(), data.size()});
  }
  pipe->close_write();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(chunk));
}
BENCHMARK(BM_PipeThroughput)->Arg(64)->Arg(1024)->Arg(16384);

void BM_ChannelElementRoundTrip(benchmark::State& state) {
  // One i64 element producer->consumer through full channel endpoints
  // (Sequence layer included), alternating like a ping to measure
  // per-element latency of the stack.
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
BENCHMARK(BM_ChannelElementRoundTrip);

void BM_ChannelWriteThroughput(benchmark::State& state) {
  // Per-element cost of the streaming write path: one i64 per iteration
  // into a channel a background thread keeps drained.  Every element is
  // published to the pipe when its write returns.  (The arg is always 0:
  // it keeps the row's name in the ledger from before the buffered
  // endpoints were removed.)
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
BENCHMARK(BM_ChannelWriteThroughput)->Arg(0);

void BM_ChannelReadThroughput(benchmark::State& state) {
  // Per-element cost of the streaming read path: a background producer
  // keeps the channel full, one i64 per write; the measured thread reads
  // one i64 per iteration.  (Arg 0 as for BM_ChannelWriteThroughput.)
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
BENCHMARK(BM_ChannelReadThroughput)->Arg(0);

void BM_DataStreamOverMemory(benchmark::State& state) {
  // The serialization layer alone, no synchronization.
  for (auto _ : state) {
    auto sink = std::make_shared<io::MemoryOutputStream>();
    io::DataOutputStream out{*sink};
    for (int i = 0; i < 64; ++i) out.write_i64(i);
    io::MemoryInputStream source{sink->take()};
    io::DataInputStream in{source};
    std::int64_t sum = 0;
    for (int i = 0; i < 64; ++i) sum += in.read_i64();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_DataStreamOverMemory);

void BM_SequenceLayerOverhead(benchmark::State& state) {
  // Reading through SequenceInputStream vs the raw pipe: the price of the
  // splice point every channel carries.
  auto pipe = std::make_shared<io::Pipe>(1 << 16);
  auto seq = std::make_shared<io::SequenceInputStream>(
      std::make_shared<io::LocalInputStream>(pipe));
  ByteVector chunk(1024, 1);
  std::jthread writer{[&, pipe] {
    try {
      for (;;) pipe->write({chunk.data(), chunk.size()});
    } catch (const IoError&) {
    }
  }};
  ByteVector buffer(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq->read_some({buffer.data(), buffer.size()}));
  }
  pipe->abort();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
}
BENCHMARK(BM_SequenceLayerOverhead);

void BM_SequenceLayer(benchmark::State& state) {
  // The Sequence layer's row of the per-layer ledger: one i64 token
  // written and read back on one thread, so no handoff is in it.  Arg 1:
  // SequenceOutputStream -> Pipe -> SequenceInputStream.  Arg 0: the same
  // Local streams bare; the difference is the layer pair's own cost.
  // Time is ns per token.
  auto pipe = std::make_shared<io::Pipe>(1 << 16);
  std::shared_ptr<io::OutputStream> out =
      std::make_shared<io::LocalOutputStream>(pipe);
  std::shared_ptr<io::InputStream> in =
      std::make_shared<io::LocalInputStream>(pipe);
  if (state.range(0) == 1) {
    out = std::make_shared<io::SequenceOutputStream>(std::move(out));
    in = std::make_shared<io::SequenceInputStream>(std::move(in));
  }
  std::uint8_t token[8];
  std::uint64_t value = 0;
  for (auto _ : state) {
    put_u64(token, value++);
    out->write({token, sizeof token});
    io::read_fully(*in, {token, sizeof token});
    benchmark::DoNotOptimize(token);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SequenceLayer)->Arg(0)->Arg(1);

void BM_PipeToken(benchmark::State& state) {
  // The pipe's row of the per-layer ledger, the local twin of
  // BM_MuxStreamToken: one raw i64 token per write through a bare
  // io::Pipe of the default capacity, the writer on its own thread.  Real
  // time is ns per token.
  auto pipe = std::make_shared<io::Pipe>();
  std::jthread writer{[pipe] {
    std::uint8_t token[8];
    try {
      for (std::uint64_t value = 0;; ++value) {
        put_u64(token, value);
        pipe->write({token, sizeof token});
      }
    } catch (const IoError&) {  // the reader closed
    }
  }};
  std::uint8_t token[8];
  for (auto _ : state) {
    std::size_t got = 0;
    while (got < sizeof token) {
      got += pipe->read_some({token + got, sizeof token - got});
    }
    benchmark::DoNotOptimize(token);
  }
  pipe->close_read();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PipeToken)->UseRealTime();

void BM_MuxStreamToken(benchmark::State& state) {
  // The mux stream's row of the per-layer ledger: one raw i64 token per
  // write through a loopback mux stream pair -- what a remote channel
  // segment carries -- the writer on its own thread.  Real time is ns per
  // token.
  auto listener = net::listen(0);
  auto client = net::dial("127.0.0.1", listener->port());
  auto server = listener->accept();
  std::jthread writer{[client] {
    std::uint8_t token[8];
    try {
      for (std::uint64_t value = 0;; ++value) {
        put_u64(token, value);
        client->write_all({token, sizeof token});
      }
    } catch (const IoError&) {  // the reader shut down
    }
  }};
  std::uint8_t token[8];
  for (auto _ : state) {
    std::size_t got = 0;
    while (got < sizeof token) {
      got += server->read_some({token + got, sizeof token - got});
    }
    benchmark::DoNotOptimize(token);
  }
  server->close();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MuxStreamToken)->UseRealTime();

void BM_RemoteChannelToken(benchmark::State& state) {
  // A full shipped channel in steady state: a Sequence producer shipped
  // to a second node writes i64 tokens through its channel endpoint
  // (Sequence layer, remote segment, mux stream, loopback TCP), and this
  // thread reads them through the consumer's endpoint (mux stream,
  // remote segment, Sequence layer, Data codec).  Real time is ns per
  // token.
  auto node_a = dist::NodeContext::create();
  auto node_b = dist::NodeContext::create();
  auto channel = std::make_shared<core::Channel>(std::size_t{1} << 16);
  auto source = std::make_shared<processes::Sequence>(0, channel->output());
  const ByteVector shipment = dist::ship_process(node_a, source);
  auto remote =
      dist::receive_process(node_b, {shipment.data(), shipment.size()});
  std::jthread producer{[remote] { remote->run(); }};
  io::DataInputStream in{*channel->input()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(in.read_i64());
  }
  channel->input()->close();  // the producer's next write fails; it stops
  producer.join();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RemoteChannelToken)->UseRealTime();

void BM_SocketThroughput(benchmark::State& state) {
  // The remote-channel transport floor: raw TCP over loopback.
  const std::size_t chunk = static_cast<std::size_t>(state.range(0));
  net::ServerSocket server{0};
  std::jthread sink_thread{[&] {
    net::Socket peer = server.accept();
    ByteVector buffer(1 << 16);
    try {
      while (peer.read_some({buffer.data(), buffer.size()}) > 0) {
      }
    } catch (const IoError&) {
    }
  }};
  net::Socket client = net::Socket::connect("127.0.0.1", server.port());
  ByteVector data(chunk, 0xcd);
  for (auto _ : state) {
    client.write_all({data.data(), data.size()});
  }
  client.close();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(chunk));
}
BENCHMARK(BM_SocketThroughput)->Arg(1024)->Arg(16384);

void BM_ChannelCreation(benchmark::State& state) {
  // Cost of materializing a channel (pipe + both endpoint stacks);
  // self-reconfiguring graphs (Sift) create one per inserted process.
  for (auto _ : state) {
    core::Channel channel{4096};
    benchmark::DoNotOptimize(channel.input().get());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ChannelCreation);

class EmptyStep final : public core::IterativeProcess {
 public:
  explicit EmptyStep(long iterations) : IterativeProcess(iterations) {}
  std::string type_name() const override { return "bench.EmptyStep"; }
  void write_fields(serial::ObjectOutputStream&) const override {}

 protected:
  void step() override {}
};

void BM_IterativeStepLoop(benchmark::State& state) {
  // The cost of one turn of IterativeProcess::run's loop (paper Figure 4):
  // the pause check at the step boundary, the step, the step counter.
  // Arg 0: an empty step(), run on this thread.  Arg 1: one i64 per step
  // from a Sequence to a Collect over a local byte channel, both fibers
  // on one M:N worker, so the Data codec and the endpoint's write and
  // read are in it but no cross-core handoff is.  ns_per_step is the wall
  // time per step of one process (per token for arg 1).
  constexpr long kSteps = 1 << 16;
  double ns = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    if (state.range(0) == 0) {
      EmptyStep{kSteps}.run();
    } else {
      core::Network network;
      network.set_scheduler(
          {.mode = sched::SchedMode::kWorkSteal, .workers = 1});
      auto channel = network.make_channel();
      auto sink = std::make_shared<processes::CollectSink<std::int64_t>>();
      network.add(
          std::make_shared<processes::Sequence>(0, channel->output(), kSteps));
      network.add(std::make_shared<processes::Collect>(channel->input(), sink));
      network.run();
      benchmark::DoNotOptimize(sink->size());
    }
    ns += std::chrono::duration<double, std::nano>(
              std::chrono::steady_clock::now() - start)
              .count();
  }
  const auto steps = static_cast<double>(state.iterations()) * kSteps;
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
  state.counters["ns_per_step"] = ns / steps;
}
BENCHMARK(BM_IterativeStepLoop)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
