#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <thread>
#include <unordered_map>
#include <vector>

#include <chrono>

#include "core/process.hpp"
#include "core/task.hpp"
#include "dist/node.hpp"
#include "fault/fault.hpp"
#include "net/mux.hpp"
#include "obs/flight.hpp"
#include "obs/snapshot.hpp"
#include "rmi/registry.hpp"

/// The generic compute server of paper Section 4.1 and its client stub.
///
/// The Server interface has two remotely invocable methods (paper):
///
///   void run(Runnable)  -- ship a Process; the server starts it on its
///                          own thread and returns immediately;
///   Object run(Task)    -- ship a Task; the server runs it to completion
///                          and returns the (serialized) result.
///
/// The client stub unifies both behind `submit()` overloads that return
/// typed handles: submit(Process) -> ProcessHandle (join/abort the hosted
/// process later), submit(Task) -> TaskFuture (get() blocks for the
/// result).  stats() fetches an obs::NetworkSnapshot of everything the
/// server is hosting.
///
/// Where the paper downloads class files via the RMI codebase, a C++
/// server must already link the process/task types it is asked to run
/// (see DESIGN.md, substitutions) -- an unknown type name is reported back
/// as an error rather than fetched.
namespace dpn::rmi {

class ComputeServer {
 public:
  /// Creates a server listening on an ephemeral port, with its own
  /// NodeContext (rendezvous listener) for the channels of the process
  /// graphs it hosts.  `lease` sets the heartbeat cadence for the
  /// synchronous ops (run(Task), join): while the work runs, the handler
  /// emits a heartbeat byte every `lease.heartbeat_interval` so a client
  /// whose `patience` elapses without one can declare the worker lost
  /// instead of hanging (docs/FAULTS.md).
  explicit ComputeServer(std::string name,
                         std::shared_ptr<dist::NodeContext> node = nullptr,
                         fault::LeaseOptions lease = {});
  ~ComputeServer();

  ComputeServer(const ComputeServer&) = delete;
  ComputeServer& operator=(const ComputeServer&) = delete;

  const std::string& name() const { return name_; }
  std::uint16_t port() const { return listener_->port(); }
  const std::shared_ptr<dist::NodeContext>& node() const { return node_; }

  /// This server's node tag: every handler thread (and therefore every
  /// hosted process it runs) records flight events under it, so
  /// in-process simulated hosts stay distinguishable in a merged trace.
  std::uint16_t trace_tag() const { return trace_tag_; }

  /// Registers this server's endpoint with a registry.
  void register_with(const std::string& registry_host,
                     std::uint16_t registry_port);

  /// Stops accepting and waits for hosted processes to finish.  Hosted
  /// process graphs are expected to terminate through the cascading-close
  /// protocol; stop() joins them.
  void stop();

  std::size_t processes_hosted() const { return processes_hosted_.load(); }
  std::size_t tasks_run() const { return tasks_run_.load(); }

  /// Everything this server is hosting right now: one ProcessSnapshot per
  /// hosted process (recursing into composites), one ChannelSnapshot per
  /// distinct channel endpoint held by those processes, plus this node's
  /// remote traffic counters.  This is the payload of the STATS request.
  obs::NetworkSnapshot snapshot() const;

 private:
  struct Hosted {
    std::shared_ptr<core::Process> process;
    bool done = false;
    std::string error;  // empty on success
  };

  void accept_loop();
  void handle(std::shared_ptr<net::Stream> stream);
  std::uint64_t host_process(std::shared_ptr<core::Process> process);
  void run_hosted(std::uint64_t id);

  std::string name_;
  std::shared_ptr<dist::NodeContext> node_;
  fault::LeaseOptions lease_;
  std::shared_ptr<net::Listener> listener_;
  std::uint16_t trace_tag_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> processes_hosted_{0};
  std::atomic<std::size_t> tasks_run_{0};

  mutable std::mutex hosted_mutex_;
  std::condition_variable hosted_cv_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Hosted>> hosted_;
  std::uint64_t next_process_id_ = 1;

  /// One request's thread; `done` is set as its handler returns.
  struct Worker {
    std::jthread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };

  std::mutex workers_mutex_;
  std::vector<Worker> workers_;
  std::jthread acceptor_;
};

class ServerHandle;

/// Pending result of ServerHandle::submit(Task).  The server runs the task
/// while the caller holds the future; get() blocks for the reply.
class TaskFuture {
 public:
  TaskFuture() = default;

  bool valid() const { return stream_ != nullptr; }

  /// Blocks until the server replies, then deserializes and returns the
  /// completed task.  Throws IoError if the task failed remotely, and
  /// WorkerLost -- fast, after the lease's patience rather than forever --
  /// if the server dies mid-task or stops heartbeating.
  /// Single-shot: the future is invalid afterwards.
  std::shared_ptr<core::Task> get();

 private:
  friend class ServerHandle;
  TaskFuture(std::shared_ptr<net::Stream> stream,
             std::shared_ptr<dist::NodeContext> local,
             fault::LeaseOptions lease)
      : stream_(std::move(stream)),
        local_(std::move(local)),
        lease_(lease),
        submitted_(std::chrono::steady_clock::now()) {}

  std::shared_ptr<net::Stream> stream_;
  std::shared_ptr<dist::NodeContext> local_;
  fault::LeaseOptions lease_;
  /// submit() time; get() records the full round trip into the task-RTT
  /// histogram (obs::runtime_histograms).
  std::chrono::steady_clock::time_point submitted_{};
};

/// Live snapshot stream from a ComputeServer (the STATS_STREAM op):
/// the server pushes one encoded NetworkSnapshot per interval until the
/// requested count is reached or the subscriber goes away.  Dropping the
/// stream object closes the connection, which the server notices on its
/// next push.  examples/dpn_top.cpp is the reference consumer.
class StatsStream {
 public:
  StatsStream() = default;

  bool valid() const { return stream_ != nullptr; }

  /// Blocks for the next pushed snapshot; nullopt when the server ends
  /// the stream (count reached or server stopping).
  std::optional<obs::NetworkSnapshot> next();

 private:
  friend class ServerHandle;
  explicit StatsStream(std::shared_ptr<net::Stream> stream)
      : stream_(std::move(stream)) {}

  std::shared_ptr<net::Stream> stream_;
};

/// Handle to a process hosted by a remote ComputeServer, returned by
/// ServerHandle::submit(Process).  Cheap to copy; all operations open a
/// fresh stream, so a handle can outlive the submitting one.
class ProcessHandle {
 public:
  ProcessHandle() = default;

  bool valid() const { return id_ != 0; }
  std::uint64_t id() const { return id_; }

  /// Blocks until the hosted process finishes; throws IoError if it
  /// failed remotely, WorkerLost if the server dies while we wait.
  void join();

  /// Closes the hosted process's channel endpoints, unblocking it so it
  /// stops via the normal end-of-stream / ChannelClosed paths.
  void abort();

 private:
  friend class ServerHandle;
  ProcessHandle(Endpoint endpoint, std::uint64_t id,
                fault::LeaseOptions lease)
      : endpoint_(std::move(endpoint)), id_(id), lease_(lease) {}

  Endpoint endpoint_;
  std::uint64_t id_ = 0;
  fault::LeaseOptions lease_;
};

/// Client stub for a remote ComputeServer.  Connects retry with backoff
/// (`retry`); the synchronous operations bound their wait by the lease's
/// patience (see ComputeServer).  A handle obtained through lookup()
/// remembers its registry provenance and NACKs the entry back to the
/// registry when the server stops answering, so repeated failures evict
/// the stale registration.
class ServerHandle {
 public:
  ServerHandle(Endpoint endpoint, std::shared_ptr<dist::NodeContext> local,
               fault::LeaseOptions lease = {}, fault::RetryPolicy retry = {});

  /// Looks a server up in a registry and returns a handle to it.
  static ServerHandle lookup(const std::string& registry_host,
                             std::uint16_t registry_port,
                             const std::string& name,
                             std::shared_ptr<dist::NodeContext> local,
                             fault::LeaseOptions lease = {},
                             fault::RetryPolicy retry = {});

  /// Ships `process` for asynchronous execution (paper: run(Runnable)).
  /// Returns once the server has deserialized and started it -- i.e. once
  /// all cut channels have reconnected.  The handle can join() the hosted
  /// process or abort() it.
  ProcessHandle submit(const std::shared_ptr<core::Process>& process);

  /// Ships `task` (paper: run(Task)); the returned future's get() blocks
  /// for the result.
  TaskFuture submit(const std::shared_ptr<core::Task>& task);

  /// Fetches a snapshot of everything the server is hosting.
  obs::NetworkSnapshot stats();

  /// Subscribes to periodic snapshot pushes: one every `interval`, at
  /// most `count` of them (0 = until the subscriber hangs up or the
  /// server stops).
  StatsStream stats_stream(std::chrono::milliseconds interval,
                           std::uint32_t count = 0);

  /// Fetches the server's flight-recorder window (only its own node
  /// tag's events): fleet_flight's per-peer ingredient (FLIGHT_DUMP op).
  obs::FlightExport flight_export();

  /// One clock probe (Cristian's algorithm): the estimated offset of the
  /// server's steady clock relative to ours (server_now minus the
  /// request's local midpoint, ns) paired with the probe's round-trip
  /// time.  fleet_flight repeats this and keeps the minimum-RTT sample --
  /// the tightest bound on the offset.
  std::pair<std::int64_t, std::uint64_t> probe_clock();

  /// Round-trip health check.
  void ping();

  const Endpoint& endpoint() const { return endpoint_; }

 private:
  /// Where lookup() found this server, for NACK reports.
  struct Provenance {
    std::string registry_host;
    std::uint16_t registry_port = 0;
    std::string name;
  };

  /// Connects with retry; on final failure, best-effort NACKs the
  /// registry entry (when lookup provenance is known) before rethrowing.
  std::shared_ptr<net::Stream> connect_();

  Endpoint endpoint_;
  std::shared_ptr<dist::NodeContext> local_;
  fault::LeaseOptions lease_;
  fault::RetryPolicy retry_;
  std::optional<Provenance> provenance_;
};

/// Merged snapshot across several servers: processes and channels are
/// concatenated, counters summed, histograms merged.  The fleet-wide
/// view of paper Section 6.2's global state, assembled from per-node
/// STATS replies.  A peer built from another snapshot version fails the
/// call with SerializationError.
obs::NetworkSnapshot fleet_stats(std::vector<ServerHandle>& servers);

/// The fleet's flight-recorder windows on one timeline: the local host's
/// (node tag 0) and every server's, pulled over the FLIGHT_DUMP op, each
/// peer's steady clock aligned with repeated minimum-RTT probes
/// (probe_clock), merged and sorted.  recorded/dropped/dumps are the
/// largest any host reported: an in-process fleet shares one registry.
/// Best called right after the fault or at quiescence: rings wrap, and
/// the interesting window is the most recent one.
obs::FlightExport fleet_flight(std::vector<ServerHandle>& servers);

/// fleet_flight as one Chrome trace_event JSON (obs::flight_chrome_json):
/// per-host pid rows, and flow arrows for the spans that crossed hosts
/// when the run was recorded at FlightLevel::kTokens.
std::string fleet_trace(std::vector<ServerHandle>& servers);

/// fleet_flight as a post-mortem (obs::flight_report): a causally
/// ordered event timeline followed by the wait-for analysis (and, for
/// deadlocks, the exact blocking cycle).
std::string fleet_dump(std::vector<ServerHandle>& servers,
                       std::string_view reason = "fleet");

}  // namespace dpn::rmi
