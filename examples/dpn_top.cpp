// dpn_top: a terminal dashboard over the live telemetry plane.
//
// Subscribes to a ComputeServer's STATS_STREAM (docs/PROTOCOLS.md
// Section 6) and redraws a top-style screen per pushed snapshot:
// hosted processes, channel occupancy and wait-time percentiles, task
// round-trip and connect latency, flight-recorder accounting.
//
//   ./dpn_top <host> <port> [--interval=ms] [--frames=N]
//   ./dpn_top --demo [--interval=ms] [--frames=N]
//   ./dpn_top --flight=FILE
//
// --flight renders a raw flight-recorder dump -- the
// dpn-flight-crash-<pid>.bin a fatal or termination signal leaves in
// DPN_FLIGHT_DIR -- as a post-mortem: the event timeline, then the
// wait-for analysis.
//
// --demo spins up an in-process server hosting half of a small pipeline
// (local Sequence -> remote Scale -> local sink over real sockets) so
// there is something to watch; --frames bounds the run (0 = forever),
// which is also how the ctest smoke test uses it.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/channel.hpp"
#include "core/process.hpp"
#include "dist/node.hpp"
#include "obs/flight.hpp"
#include "obs/snapshot.hpp"
#include "processes/arith.hpp"
#include "processes/basic.hpp"
#include "rmi/compute_server.hpp"

namespace {

const char* state_name(dpn::obs::ProcessState state) {
  switch (state) {
    case dpn::obs::ProcessState::kIdle:
      return "idle";
    case dpn::obs::ProcessState::kRunning:
      return "run";
    case dpn::obs::ProcessState::kBlockedReading:
      return "rd-blk";
    case dpn::obs::ProcessState::kBlockedWriting:
      return "wr-blk";
    case dpn::obs::ProcessState::kPaused:
      return "pause";
    case dpn::obs::ProcessState::kFinished:
      return "done";
    case dpn::obs::ProcessState::kRunnable:
      return "ready";
  }
  return "?";
}

void draw(const dpn::obs::NetworkSnapshot& snap, unsigned frame) {
  std::printf("\x1b[2J\x1b[H");  // clear screen, home cursor
  std::printf("dpn_top -- frame %u (snapshot v%u)\n", frame,
              static_cast<unsigned>(dpn::obs::NetworkSnapshot::kVersion));
  std::printf("live: %" PRIu64 "  remote tx/rx: %" PRIu64 "/%" PRIu64
              " B  growth: %" PRIu64 "\n",
              snap.live, snap.remote_bytes_sent, snap.remote_bytes_received,
              snap.growth_events);
  // Any dumps means a post-mortem file exists on some host.
  std::printf("flight: recorded=%" PRIu64 " dropped=%" PRIu64
              " dumps=%" PRIu64 "  faults: retries=%" PRIu64
              " lost=%" PRIu64 "\n",
              snap.flight_recorded, snap.flight_dropped, snap.flight_dumps,
              snap.connect_retries, snap.workers_lost);
  if (!snap.sched_runq.empty()) {
    std::printf("runq wait p50/p95/p99: %" PRIu64 "/%" PRIu64 "/%" PRIu64
                " us  (n=%" PRIu64 ")\n",
                snap.sched_runq.p50_ns() / 1000,
                snap.sched_runq.p95_ns() / 1000,
                snap.sched_runq.p99_ns() / 1000, snap.sched_runq.count);
  }
  if (!snap.task_rtt.empty()) {
    std::printf("task rtt  p50/p95/p99: %" PRIu64 "/%" PRIu64 "/%" PRIu64
                " us  (n=%" PRIu64 ")\n",
                snap.task_rtt.p50_ns() / 1000, snap.task_rtt.p95_ns() / 1000,
                snap.task_rtt.p99_ns() / 1000, snap.task_rtt.count);
  }
  if (!snap.connect_latency.empty()) {
    std::printf("connect   p50/p95/p99: %" PRIu64 "/%" PRIu64 "/%" PRIu64
                " us  (n=%" PRIu64 ")\n",
                snap.connect_latency.p50_ns() / 1000,
                snap.connect_latency.p95_ns() / 1000,
                snap.connect_latency.p99_ns() / 1000,
                snap.connect_latency.count);
  }
  if (snap.mux_connections > 0) {
    // Transport plane: how many logical channels ride each TCP
    // connection, and how long writers sat waiting for credit.
    std::printf("mux: %" PRIu64 " conn  %" PRIu64 "/%" PRIu64
                " streams (%.1f per conn)  credit stalls: %" PRIu64
                " (%" PRIu64 " us)\n",
                snap.mux_connections, snap.mux_streams_active,
                snap.mux_streams_total,
                static_cast<double>(snap.mux_streams_active) /
                    static_cast<double>(snap.mux_connections),
                snap.mux_credit_stalls, snap.mux_credit_stall_ns / 1000);
  }
  std::printf("\n%-24s %-7s %12s\n", "PROCESS", "STATE", "STEPS");
  for (const auto& process : snap.processes) {
    std::printf("%-24.24s %-7s %12" PRIu64 "\n", process.name.c_str(),
                state_name(process.state), process.steps);
  }
  std::printf("\n%-16s %10s %12s %12s %10s %10s %-18s\n", "CHANNEL",
              "BUF/CAP", "TOKENS-W", "TOKENS-R", "rWAIT p95", "wWAIT p95",
              "TYPED");
  for (const auto& channel : snap.channels) {
    char occupancy[24];
    std::snprintf(occupancy, sizeof occupancy, "%" PRIu64 "/%" PRIu64,
                  channel.buffered, channel.capacity);
    // Typed fast path: value counts, plus a bytes estimate from
    // the byte-plane capacity the ring's occupancy was folded into
    // (capacity bytes / capacity values = the codec's wire size).
    char typed[32] = "-";
    if (channel.has_typed && channel.typed_demoted) {
      std::snprintf(typed, sizeof typed, "demoted");
    } else if (channel.has_typed) {
      const std::uint64_t value_bytes =
          channel.typed_capacity > 0 ? channel.capacity / channel.typed_capacity
                                     : 0;
      std::snprintf(typed, sizeof typed,
                    "%" PRIu64 " vals ~%" PRIu64 "B", channel.typed_pushed,
                    channel.typed_pushed * value_bytes);
    }
    std::printf("%-16.16s %10s %12" PRIu64 " %12" PRIu64 " %8" PRIu64
                "us %8" PRIu64 "us %-18s\n",
                channel.label.empty() ? "?" : channel.label.c_str(), occupancy,
                channel.tokens_written, channel.tokens_read,
                channel.read_block.p95_ns() / 1000,
                channel.write_block.p95_ns() / 1000, typed);
  }
  std::fflush(stdout);
}

int watch(dpn::rmi::ServerHandle& handle, unsigned interval_ms,
          unsigned frames) {
  auto stream = handle.stats_stream(std::chrono::milliseconds{interval_ms},
                                    frames);
  unsigned frame = 0;
  while (auto snap = stream.next()) {
    draw(*snap, ++frame);
  }
  std::printf("\nstream ended after %u frame(s)\n", frame);
  return frame > 0 ? 0 : 1;
}

int render_flight_dump(const char* path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    std::fprintf(stderr, "dpn_top: cannot open %s\n", path);
    return 1;
  }
  const std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                        std::istreambuf_iterator<char>()};
  const auto dump =
      dpn::obs::FlightExport::decode({bytes.data(), bytes.size()});
  std::printf("%s: %" PRIu64 " recorded, %" PRIu64 " dropped\n", path,
              dump.recorded, dump.dropped);
  std::fputs(dpn::obs::flight_report(dump.events, path).c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dpn;
  bool demo = false;
  std::string host;
  std::uint16_t port = 0;
  unsigned interval_ms = 1000;
  unsigned frames = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--flight=", 0) == 0) {
      return render_flight_dump(arg.c_str() + 9);
    } else if (arg == "--demo") {
      demo = true;
    } else if (arg.rfind("--interval=", 0) == 0) {
      interval_ms = static_cast<unsigned>(std::atoi(arg.c_str() + 11));
    } else if (arg.rfind("--frames=", 0) == 0) {
      frames = static_cast<unsigned>(std::atoi(arg.c_str() + 9));
    } else if (host.empty()) {
      host = arg;
    } else {
      port = static_cast<std::uint16_t>(std::atoi(arg.c_str()));
    }
  }
  if (!demo && (host.empty() || port == 0)) {
    std::fprintf(stderr,
                 "usage: %s <host> <port> [--interval=ms] [--frames=N]\n"
                 "       %s --demo [--interval=ms] [--frames=N]\n"
                 "       %s --flight=FILE\n",
                 argv[0], argv[0], argv[0]);
    return 2;
  }

  if (!demo) {
    auto local = dist::NodeContext::create();
    rmi::ServerHandle handle{{host, port}, local};
    return watch(handle, interval_ms, frames);
  }

  // Demo: one in-process server hosting the middle of a pipeline; both
  // cut channels become real localhost sockets when the Scale ships.
  rmi::ComputeServer server{"dpn-top-demo"};
  auto local = dist::NodeContext::create();
  const std::size_t cap = 8192;
  auto upstream = std::make_shared<core::Channel>(cap, "up");
  auto downstream = std::make_shared<core::Channel>(cap, "down");

  auto shipped = std::make_shared<core::CompositeProcess>();
  shipped->add(std::make_shared<processes::Scale>(upstream->input(),
                                                  downstream->output(), 3));

  std::FILE* devnull = std::fopen("/dev/null", "w");
  auto staying = std::make_shared<core::CompositeProcess>();
  staying->add(std::make_shared<processes::Sequence>(0, upstream->output()));
  staying->add(std::make_shared<processes::Print>(
      downstream->input(), 0, "", devnull ? devnull : stdout));

  rmi::ServerHandle handle{{"127.0.0.1", server.port()}, local};
  auto hosted = handle.submit(shipped);
  std::jthread driver{[&staying] {
    try {
      staying->run();
    } catch (const std::exception&) {
      // Torn down by abort() below; expected.
    }
  }};

  const int status = watch(handle, interval_ms, frames);
  hosted.abort();
  driver.join();
  server.stop();
  if (devnull != nullptr) std::fclose(devnull);
  return status;
}
