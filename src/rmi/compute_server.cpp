#include "rmi/compute_server.hpp"

#include <algorithm>
#include <chrono>
#include <set>

#include "core/channel.hpp"
#include "dist/ship.hpp"
#include "io/data.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "support/log.hpp"

namespace dpn::rmi {
namespace {

enum class Op : std::uint8_t {
  kRunProcess = 1,     // legacy run(Runnable): async, no process id
  kRunTask = 2,        // run(Task) / submit(Task): sync, returns result
  kPing = 3,
  kSubmitProcess = 4,  // submit(Process): replies with a process id
  kJoinProcess = 5,    // block until a hosted process finishes
  kAbortProcess = 6,   // close a hosted process's channel endpoints
  kStats = 7,          // obs::NetworkSnapshot of everything hosted
  kStatsStream = 8,    // periodic snapshot pushes (docs/PROTOCOLS.md §6)
  // 9 is retired (see docs/PROTOCOLS.md); op numbers are not reused.
  kTimeSync = 10,      // steady-clock probe, for clock-offset estimation
  kSubmitTraced = 11,  // kSubmitProcess with a leading TraceContext
  kFlightDump = 12,    // this host's flight-recorder window (fleet merge)
};

/// Node tags for in-process "hosts": each ComputeServer takes the next
/// one, tag 0 stays the client/local host.
std::uint16_t next_trace_tag() {
  static std::atomic<std::uint16_t> counter{0};
  return static_cast<std::uint16_t>(
      counter.fetch_add(1, std::memory_order_relaxed) + 1);
}

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Reply framing for the synchronous ops (kRunTask, kJoinProcess): the
// server emits zero or more heartbeat bytes while the work runs, then the
// reply marker followed by the op's normal reply.  A client that sees
// nothing for a whole lease patience declares the worker lost.
constexpr std::uint8_t kReplyMarker = 0xB0;
constexpr std::uint8_t kHeartbeatMarker = 0xB1;

/// Client side of the framing: consumes heartbeats until the reply
/// marker.  Throws WorkerLost on lease expiry (no byte for `patience`)
/// or a dropped connection -- fail fast instead of hanging forever.
void await_reply(net::Stream& stream, const fault::LeaseOptions& lease,
                 const std::string& what) {
  for (;;) {
    if (!stream.wait_readable(lease.patience)) {
      fault::stats().lease_expiries.fetch_add(1, std::memory_order_relaxed);
      throw WorkerLost{what + ": no heartbeat within " +
                       std::to_string(lease.patience.count()) +
                       "ms -- worker lost"};
    }
    std::uint8_t marker = 0;
    if (stream.read_some({&marker, 1}) == 0) {
      throw WorkerLost{what + ": connection lost"};
    }
    if (marker == kHeartbeatMarker) continue;
    if (marker == kReplyMarker) return;
    throw IoError{what + ": unexpected reply marker " +
                  std::to_string(marker)};
  }
}

}  // namespace

ComputeServer::ComputeServer(std::string name,
                             std::shared_ptr<dist::NodeContext> node,
                             fault::LeaseOptions lease)
    : name_(std::move(name)),
      node_(node ? std::move(node) : dist::NodeContext::create()),
      lease_(lease),
      listener_(net::listen(0)),
      trace_tag_(next_trace_tag()) {
  // A server host must be dumpable after a crash too, whether or not it
  // ever starts a Network of its own.
  obs::flight_install_crash_handler();
  acceptor_ = std::jthread{[this] { accept_loop(); }};
  log::info("compute server '", name_, "' listening on port ",
            listener_->port());
}

ComputeServer::~ComputeServer() { stop(); }

void ComputeServer::register_with(const std::string& registry_host,
                                  std::uint16_t registry_port) {
  RegistryClient client{registry_host, registry_port};
  client.register_name(name_, Endpoint{node_->host(), port()});
}

void ComputeServer::stop() {
  if (stopping_.exchange(true)) return;
  {
    // Wake stats streamers so stop() can join them.  Taking their lock
    // first: one between its check of stopping_ and its wait would miss
    // a bare notify and sleep out its whole interval.
    std::scoped_lock lock{hosted_mutex_};
  }
  hosted_cv_.notify_all();
  listener_->close();
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<Worker> workers;
  {
    std::scoped_lock lock{workers_mutex_};
    workers.swap(workers_);
  }
  for (auto& worker : workers) {
    if (worker.thread.joinable()) worker.thread.join();
  }
}

obs::NetworkSnapshot ComputeServer::snapshot() const {
  obs::NetworkSnapshot snap;
  const auto& traffic = *node_->traffic();
  const dist::TrafficStats::Bytes bytes = traffic.bytes();
  snap.remote_bytes_sent = bytes.sent;
  snap.remote_bytes_received = bytes.received;
  snap.fill_fault_counters();
  // Trace/task-RTT/connect/mux counters are process-global; in an
  // in-process simulated fleet every server reports the same values
  // (fleet_stats merges are therefore an upper bound there, exact for
  // real fleets).
  snap.fill_runtime_counters();
  snap.fill_transport_counters();

  std::scoped_lock lock{hosted_mutex_};
  std::set<const core::ChannelState*> seen;
  for (const auto& [id, hosted] : hosted_) {
    if (!hosted->done) ++snap.live;
    core::append_process_snapshots(*hosted->process, snap.processes);
    for (const auto& in : hosted->process->channel_inputs()) {
      const auto& state = in->state();
      if (seen.insert(state.get()).second) {
        snap.channels.push_back(core::snapshot_channel(*state));
      }
    }
    for (const auto& out : hosted->process->channel_outputs()) {
      const auto& state = out->state();
      if (seen.insert(state.get()).second) {
        snap.channels.push_back(core::snapshot_channel(*state));
      }
    }
  }
  return snap;
}

std::uint64_t ComputeServer::host_process(
    std::shared_ptr<core::Process> process) {
  processes_hosted_.fetch_add(1);
  auto hosted = std::make_shared<Hosted>();
  hosted->process = std::move(process);
  std::scoped_lock lock{hosted_mutex_};
  const std::uint64_t id = next_process_id_++;
  hosted_.emplace(id, std::move(hosted));
  return id;
}

void ComputeServer::run_hosted(std::uint64_t id) {
  std::shared_ptr<Hosted> hosted;
  {
    std::scoped_lock lock{hosted_mutex_};
    hosted = hosted_.at(id);
  }
  log::info("compute server '", name_, "' hosting process ",
            hosted->process->name(), " (id ", id, ")");
  std::string error;
  try {
    hosted->process->run();
  } catch (const IoError&) {
    // Graceful stop via channel closure.
  } catch (const std::exception& e) {
    error = e.what();
    if (error.empty()) error = "hosted process failed";
    log::error("compute server '", name_, "': hosted process ",
               hosted->process->name(), " failed: ", error);
  }
  {
    std::scoped_lock lock{hosted_mutex_};
    hosted->done = true;
    hosted->error = std::move(error);
  }
  hosted_cv_.notify_all();
}

void ComputeServer::accept_loop() {
  for (;;) {
    std::shared_ptr<net::Stream> stream;
    try {
      stream = listener_->accept();
    } catch (const NetError&) {
      return;  // stopped
    }
    // Each request gets its own thread: run(Task) is synchronous and may
    // be long, and deserializing a process graph dials back for channels,
    // which must not block unrelated requests.  Threads whose request is
    // done are joined here, so a long-lived server keeps only the stacks
    // of requests still running.
    auto done = std::make_shared<std::atomic<bool>>(false);
    std::scoped_lock lock{workers_mutex_};
    std::erase_if(workers_, [](Worker& worker) {
      if (!worker.done->load(std::memory_order_acquire)) return false;
      worker.thread.join();
      return true;
    });
    workers_.push_back({std::jthread{[this, stream = std::move(stream), done] {
                          try {
                            handle(stream);
                          } catch (const std::exception& e) {
                            log::warn("compute server '", name_,
                                      "': request failed: ", e.what());
                          }
                          done->store(true, std::memory_order_release);
                        }},
                        done});
  }
}

void ComputeServer::handle(std::shared_ptr<net::Stream> stream) {
  // Everything this thread does -- including running a hosted process,
  // whose spawned threads inherit the tag -- records flight events under
  // this server's host tag.
  obs::flight_set_node(trace_tag_);
  net::StreamInput source{stream};
  io::DataInputStream in{source};
  net::StreamOutput sink{stream};
  io::DataOutputStream out{sink};
  const auto op = static_cast<Op>(in.read_u8());
  switch (op) {
    case Op::kRunProcess:
    case Op::kSubmitProcess:
    case Op::kSubmitTraced: {
      if (op == Op::kSubmitTraced) {
        // The submit handshake carries the client's TraceContext; adopt
        // it so the SHIP -> JOIN span pair links causally across hosts.
        std::uint8_t raw[obs::TraceContext::kWireSize];
        in.read_fully({raw, sizeof raw});
        const auto ctx = obs::TraceContext::decode(raw);
        if (ctx.valid()) {
          obs::current_trace_context() = ctx;
          DPN_FLIGHT_TOKEN(obs::FlightKind::kShipRecv, "submit", ctx.span_id);
        }
      }
      const ByteVector shipment = in.read_bytes();
      std::shared_ptr<core::Process> process;
      try {
        process = dist::receive_process(node_,
                                        {shipment.data(), shipment.size()});
      } catch (const std::exception& e) {
        out.write_bool(false);
        out.write_string(e.what());
        if (op != Op::kRunProcess) out.write_u64(0);
        return;
      }
      const std::uint64_t id = host_process(std::move(process));
      out.write_bool(true);
      out.write_string("");
      if (op != Op::kRunProcess) out.write_u64(id);
      // submit()/run(Runnable) return immediately; the process runs here.
      run_hosted(id);
      break;
    }
    case Op::kRunTask: {
      const ByteVector shipment = in.read_bytes();
      std::shared_ptr<core::Task> result;
      std::string error;
      // The task runs on a helper thread so this handler can heartbeat
      // the connection while it computes.
      std::mutex done_mutex;
      std::condition_variable done_cv;
      bool done = false;
      std::jthread runner{[&] {
        try {
          auto object =
              dist::receive_object(node_, {shipment.data(), shipment.size()});
          auto task = std::dynamic_pointer_cast<core::Task>(object);
          if (!task) throw SerializationError{"shipment is not a Task"};
          result = task->run();
          tasks_run_.fetch_add(1);
        } catch (const std::exception& e) {
          error = e.what();
          if (error.empty()) error = "task failed";
        }
        {
          std::scoped_lock done_lock{done_mutex};
          done = true;
        }
        done_cv.notify_all();
      }};
      bool client_gone = false;
      {
        std::unique_lock lock{done_mutex};
        while (!done_cv.wait_for(lock, lease_.heartbeat_interval,
                                 [&] { return done; })) {
          lock.unlock();
          try {
            out.write_u8(kHeartbeatMarker);
          } catch (const IoError&) {
            client_gone = true;
          }
          lock.lock();
          if (client_gone) break;
        }
      }
      runner.join();
      if (client_gone) return;  // nobody left to read the reply
      out.write_u8(kReplyMarker);
      if (!error.empty()) {
        out.write_bool(false);
        out.write_string(error);
        return;
      }
      out.write_bool(true);
      const ByteVector reply = dist::ship_object(node_, result);
      out.write_bytes({reply.data(), reply.size()});
      break;
    }
    case Op::kJoinProcess: {
      const std::uint64_t id = in.read_u64();
      std::shared_ptr<Hosted> hosted;
      {
        std::scoped_lock lock{hosted_mutex_};
        const auto it = hosted_.find(id);
        if (it != hosted_.end()) hosted = it->second;
      }
      if (!hosted) {
        out.write_u8(kReplyMarker);
        out.write_bool(false);
        out.write_string("unknown process id " + std::to_string(id));
        return;
      }
      bool client_gone = false;
      {
        std::unique_lock lock{hosted_mutex_};
        while (!hosted_cv_.wait_for(lock, lease_.heartbeat_interval,
                                    [&] { return hosted->done; })) {
          // Heartbeat outside the lock: a blocked write must not stall
          // every other joiner and run_hosted's completion signal.
          lock.unlock();
          try {
            out.write_u8(kHeartbeatMarker);
          } catch (const IoError&) {
            client_gone = true;
          }
          lock.lock();
          if (client_gone) break;
        }
      }
      if (client_gone) return;
      out.write_u8(kReplyMarker);
      out.write_bool(hosted->error.empty());
      out.write_string(hosted->error);
      break;
    }
    case Op::kAbortProcess: {
      const std::uint64_t id = in.read_u64();
      std::shared_ptr<Hosted> hosted;
      {
        std::scoped_lock lock{hosted_mutex_};
        const auto it = hosted_.find(id);
        if (it != hosted_.end()) hosted = it->second;
      }
      if (!hosted) {
        out.write_bool(false);
        out.write_string("unknown process id " + std::to_string(id));
        return;
      }
      // Closing the endpoints wakes the process out of any blocked channel
      // op; it then stops via end-of-stream / ChannelClosed as usual.
      for (const auto& input : hosted->process->channel_inputs()) {
        try {
          input->close();
        } catch (const std::exception&) {
        }
      }
      for (const auto& output : hosted->process->channel_outputs()) {
        try {
          output->close();
        } catch (const std::exception&) {
        }
      }
      out.write_bool(true);
      out.write_string("");
      break;
    }
    case Op::kStats: {
      const ByteVector encoded = snapshot().encode();
      out.write_bool(true);
      out.write_bytes({encoded.data(), encoded.size()});
      break;
    }
    case Op::kStatsStream: {
      // Push one encoded snapshot per interval until the requested count
      // is reached, the subscriber hangs up, or the server stops.  Each
      // push is prefixed with a continuation flag so the subscriber can
      // tell a clean end-of-stream from a dropped connection.
      const std::uint32_t interval_ms = std::max<std::uint32_t>(
          in.read_u32(), 1);
      const std::uint32_t count = in.read_u32();
      std::uint32_t sent = 0;
      bool client_gone = false;
      while (!stopping_.load() && (count == 0 || sent < count)) {
        {
          std::unique_lock lock{hosted_mutex_};
          hosted_cv_.wait_for(lock, std::chrono::milliseconds{interval_ms},
                              [this] { return stopping_.load(); });
        }
        if (stopping_.load()) break;
        try {
          const ByteVector encoded = snapshot().encode();
          out.write_bool(true);
          out.write_bytes({encoded.data(), encoded.size()});
          ++sent;
        } catch (const IoError&) {
          client_gone = true;  // subscriber hung up; normal
          break;
        }
      }
      if (!client_gone) {
        try {
          out.write_bool(false);
        } catch (const IoError&) {
        }
      }
      break;
    }
    case Op::kFlightDump: {
      // Only this host's events: an in-process fleet shares the ring
      // registry, and the fleet merge must not receive every event from
      // every peer.
      const ByteVector encoded =
          obs::flight_export(static_cast<std::int64_t>(trace_tag_)).encode();
      out.write_bool(true);
      out.write_bytes({encoded.data(), encoded.size()});
      break;
    }
    case Op::kTimeSync: {
      out.write_bool(true);
      out.write_u64(steady_now_ns());
      break;
    }
    case Op::kPing: {
      out.write_bool(true);
      out.write_string(name_);
      break;
    }
    default:
      throw IoError{"compute server: unknown op"};
  }
}

std::shared_ptr<core::Task> TaskFuture::get() {
  if (!stream_) throw UsageError{"TaskFuture::get on an invalid future"};
  auto stream = std::move(stream_);
  await_reply(*stream, lease_, "compute server task");
  obs::runtime_histograms().task_rtt.record_shared(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - submitted_)
          .count()));
  net::StreamInput source{stream};
  io::DataInputStream in{source};
  if (!in.read_bool()) {
    throw IoError{"compute server task failed: " + in.read_string()};
  }
  const ByteVector reply = in.read_bytes();
  auto object = dist::receive_object(local_, {reply.data(), reply.size()});
  if (!object) return nullptr;
  auto result = std::dynamic_pointer_cast<core::Task>(object);
  if (!result) {
    throw SerializationError{"compute server returned a non-Task object"};
  }
  return result;
}

void ProcessHandle::join() {
  if (!valid()) throw UsageError{"ProcessHandle::join on an invalid handle"};
  auto stream = net::dial_with_retry(endpoint_.host, endpoint_.port, {});
  net::StreamOutput sink{stream};
  io::DataOutputStream out{sink};
  out.write_u8(static_cast<std::uint8_t>(Op::kJoinProcess));
  out.write_u64(id_);
  await_reply(*stream, lease_, "hosted process join");
  net::StreamInput source{stream};
  io::DataInputStream in{source};
  if (!in.read_bool()) {
    throw IoError{"hosted process failed: " + in.read_string()};
  }
  in.read_string();
}

void ProcessHandle::abort() {
  if (!valid()) throw UsageError{"ProcessHandle::abort on an invalid handle"};
  auto stream = net::dial_with_retry(endpoint_.host, endpoint_.port, {});
  net::StreamOutput sink{stream};
  io::DataOutputStream out{sink};
  net::StreamInput source{stream};
  io::DataInputStream in{source};
  out.write_u8(static_cast<std::uint8_t>(Op::kAbortProcess));
  out.write_u64(id_);
  if (!in.read_bool()) {
    throw IoError{"abort failed: " + in.read_string()};
  }
  in.read_string();
}

ServerHandle::ServerHandle(Endpoint endpoint,
                           std::shared_ptr<dist::NodeContext> local,
                           fault::LeaseOptions lease,
                           fault::RetryPolicy retry)
    : endpoint_(std::move(endpoint)),
      local_(std::move(local)),
      lease_(lease),
      retry_(retry) {
  if (!local_) local_ = dist::NodeContext::default_node();
}

ServerHandle ServerHandle::lookup(const std::string& registry_host,
                                  std::uint16_t registry_port,
                                  const std::string& name,
                                  std::shared_ptr<dist::NodeContext> local,
                                  fault::LeaseOptions lease,
                                  fault::RetryPolicy retry) {
  RegistryClient client{registry_host, registry_port, retry};
  auto endpoint = client.lookup(name);
  if (!endpoint) {
    throw NetError{"no compute server named '" + name + "' in the registry"};
  }
  ServerHandle handle{*endpoint, std::move(local), lease, retry};
  handle.provenance_ =
      Provenance{registry_host, registry_port, name};
  return handle;
}

std::shared_ptr<net::Stream> ServerHandle::connect_() {
  try {
    return net::dial_with_retry(endpoint_.host, endpoint_.port, retry_);
  } catch (const NetError&) {
    if (provenance_) {
      // NACK the registry entry so repeated failures evict it; best
      // effort -- the original connect failure is what the caller needs.
      try {
        RegistryClient client{provenance_->registry_host,
                              provenance_->registry_port, retry_};
        client.report_unreachable(provenance_->name, endpoint_);
      } catch (const std::exception&) {
      }
    }
    throw;
  }
}

ProcessHandle ServerHandle::submit(
    const std::shared_ptr<core::Process>& process) {
  // Connect before serializing: shipping has side effects on the live
  // graph (endpoints are switched onto pending streams), so an
  // unreachable server must fail before any of that happens.
  auto stream = connect_();
  const ByteVector shipment = dist::ship_process(local_, process);
  net::StreamOutput sink{stream};
  io::DataOutputStream out{sink};
  net::StreamInput source{stream};
  io::DataInputStream in{source};
  if (obs::flight_tokens()) {
    // Stamp the handshake so this SHIP and the server's matching receive
    // form a causally-linked span pair in the merged trace.
    auto& ambient = obs::current_trace_context();
    if (!ambient.valid()) {
      ambient.trace_id = obs::new_trace_id();
      ambient.flags = obs::TraceContext::kSampled;
    }
    obs::TraceContext ctx = ambient;
    ctx.span_id = obs::next_span_id();
    std::uint8_t raw[obs::TraceContext::kWireSize];
    ctx.encode(raw);
    out.write_u8(static_cast<std::uint8_t>(Op::kSubmitTraced));
    out.write({raw, sizeof raw});
    DPN_FLIGHT_TOKEN(obs::FlightKind::kShipSend, "submit", ctx.span_id,
                     shipment.size());
  } else {
    out.write_u8(static_cast<std::uint8_t>(Op::kSubmitProcess));
  }
  out.write_bytes({shipment.data(), shipment.size()});
  const bool ok = in.read_bool();
  const std::string error = in.read_string();
  const std::uint64_t id = in.read_u64();
  if (!ok) {
    throw IoError{"compute server rejected process: " + error};
  }
  return ProcessHandle{endpoint_, id, lease_};
}

TaskFuture ServerHandle::submit(const std::shared_ptr<core::Task>& task) {
  const ByteVector shipment = dist::ship_object(local_, task);
  auto stream = connect_();
  net::StreamOutput sink{stream};
  io::DataOutputStream out{sink};
  out.write_u8(static_cast<std::uint8_t>(Op::kRunTask));
  out.write_bytes({shipment.data(), shipment.size()});
  return TaskFuture{stream, local_, lease_};
}

obs::NetworkSnapshot ServerHandle::stats() {
  auto stream = connect_();
  net::StreamOutput sink{stream};
  io::DataOutputStream out{sink};
  net::StreamInput source{stream};
  io::DataInputStream in{source};
  out.write_u8(static_cast<std::uint8_t>(Op::kStats));
  if (!in.read_bool()) throw IoError{"compute server stats failed"};
  const ByteVector reply = in.read_bytes();
  return obs::NetworkSnapshot::decode({reply.data(), reply.size()});
}

std::optional<obs::NetworkSnapshot> StatsStream::next() {
  if (!stream_) return std::nullopt;
  net::StreamInput source{stream_};
  io::DataInputStream in{source};
  try {
    if (!in.read_bool()) {
      stream_.reset();  // clean end-of-stream
      return std::nullopt;
    }
    const ByteVector reply = in.read_bytes();
    return obs::NetworkSnapshot::decode({reply.data(), reply.size()});
  } catch (const IoError&) {
    stream_.reset();  // server went away mid-stream
    return std::nullopt;
  }
}

StatsStream ServerHandle::stats_stream(std::chrono::milliseconds interval,
                                       std::uint32_t count) {
  auto stream = connect_();
  net::StreamOutput sink{stream};
  io::DataOutputStream out{sink};
  out.write_u8(static_cast<std::uint8_t>(Op::kStatsStream));
  out.write_u32(static_cast<std::uint32_t>(
      std::max<std::chrono::milliseconds::rep>(interval.count(), 1)));
  out.write_u32(count);
  return StatsStream{std::move(stream)};
}

obs::FlightExport ServerHandle::flight_export() {
  auto stream = connect_();
  net::StreamOutput sink{stream};
  io::DataOutputStream out{sink};
  net::StreamInput source{stream};
  io::DataInputStream in{source};
  out.write_u8(static_cast<std::uint8_t>(Op::kFlightDump));
  if (!in.read_bool()) throw IoError{"compute server flight dump failed"};
  const ByteVector reply = in.read_bytes();
  return obs::FlightExport::decode({reply.data(), reply.size()});
}

std::pair<std::int64_t, std::uint64_t> ServerHandle::probe_clock() {
  auto stream = connect_();
  net::StreamOutput sink{stream};
  io::DataOutputStream out{sink};
  net::StreamInput source{stream};
  io::DataInputStream in{source};
  const std::uint64_t t0 = steady_now_ns();
  out.write_u8(static_cast<std::uint8_t>(Op::kTimeSync));
  if (!in.read_bool()) throw IoError{"compute server time sync failed"};
  const std::uint64_t server_now = in.read_u64();
  const std::uint64_t t1 = steady_now_ns();
  const std::uint64_t midpoint = t0 + (t1 - t0) / 2;
  return {static_cast<std::int64_t>(server_now) -
              static_cast<std::int64_t>(midpoint),
          t1 - t0};
}

void ServerHandle::ping() {
  auto stream = connect_();
  net::StreamOutput sink{stream};
  io::DataOutputStream out{sink};
  net::StreamInput source{stream};
  io::DataInputStream in{source};
  out.write_u8(static_cast<std::uint8_t>(Op::kPing));
  if (!in.read_bool()) throw NetError{"ping failed"};
  in.read_string();
}

obs::NetworkSnapshot fleet_stats(std::vector<ServerHandle>& servers) {
  obs::NetworkSnapshot fleet;
  for (std::size_t i = 0; i < servers.size(); ++i) {
    obs::NetworkSnapshot snap = servers[i].stats();
    if (i == 0) {
      fleet = std::move(snap);
    } else {
      fleet.merge_from(std::move(snap));
    }
  }
  return fleet;
}

obs::FlightExport fleet_flight(std::vector<ServerHandle>& servers) {
  // The local host's own window (node tag 0) anchors the timeline.
  obs::FlightExport fleet = obs::flight_export(0);
  for (ServerHandle& server : servers) {
    const obs::FlightExport remote = server.flight_export();
    // The counters are process-wide, and an in-process fleet shares one
    // ring registry: take the largest rather than summing it N times.
    fleet.recorded = std::max(fleet.recorded, remote.recorded);
    fleet.dropped = std::max(fleet.dropped, remote.dropped);
    fleet.dumps = std::max(fleet.dumps, remote.dumps);
    // Cristian's algorithm: repeat the probe, keep the minimum-RTT
    // sample -- the tightest bound on the peer's clock offset.  (For an
    // in-process fleet the true offset is 0; the estimate's error is
    // bounded by the best half-RTT either way.)
    std::int64_t offset = 0;
    std::uint64_t best_rtt = ~std::uint64_t{0};
    for (int i = 0; i < 5; ++i) {
      const auto [sample, rtt] = server.probe_clock();
      if (rtt < best_rtt) {
        best_rtt = rtt;
        offset = sample;
      }
    }
    for (obs::FlightEvent event : remote.events) {
      const std::int64_t aligned =
          static_cast<std::int64_t>(event.ts_ns) - offset;
      event.ts_ns = aligned > 0 ? static_cast<std::uint64_t>(aligned) : 0;
      fleet.events.push_back(event);
    }
  }
  std::stable_sort(fleet.events.begin(), fleet.events.end(),
                   [](const obs::FlightEvent& a, const obs::FlightEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return fleet;
}

std::string fleet_trace(std::vector<ServerHandle>& servers) {
  return obs::flight_chrome_json(fleet_flight(servers));
}

std::string fleet_dump(std::vector<ServerHandle>& servers,
                       std::string_view reason) {
  return obs::flight_report(fleet_flight(servers).events, reason);
}

}  // namespace dpn::rmi
