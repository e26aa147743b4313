#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/network.hpp"
#include "core/process.hpp"
#include "par/generic.hpp"

/// The parallel-worker schemas of paper Section 5.
///
/// Both schemas replace the single worker of the Figure 1 pipeline with N
/// parallel workers, and both present *identical* results in *identical*
/// order to the consumer:
///
///  * meta_static  (Figure 16): Scatter and Gather move tasks round-robin,
///    so every worker gets the same number of tasks.  Throughput is gated
///    by the slowest worker.
///  * meta_dynamic (Figures 17/18): a Direct process routes each task to
///    the worker named by the index stream; the indexed merge (Turnstile +
///    Select, with an initial 0..N-1 prefix spliced in by a Cons) emits
///    that index stream in completion order, so each completed task pulls
///    the next task to the worker that finished it -- on-demand load
///    balancing.  The Turnstile is non-determinate, but the schema is well
///    behaved: its input-output relation does not depend on arrival order.
namespace dpn::par {

/// Builds the worker process for slot `index` reading tasks from `in` and
/// writing results to `out`.  The default factory creates the generic
/// par::Worker; the cluster simulation substitutes throttled workers.
using WorkerFactory = std::function<std::shared_ptr<core::Process>(
    std::size_t index, std::shared_ptr<core::ChannelInputStream> in,
    std::shared_ptr<core::ChannelOutputStream> out)>;

struct SchemaOptions {
  /// Template for the channels created inside the schema (capacity and
  /// endpoint buffering); the label is replaced with a per-channel one
  /// ("dynamic.task.3", ...).
  core::ChannelOptions channel{};
  /// If set, every channel created inside the schema is registered with
  /// this network's deadlock monitor.
  core::Network* watch = nullptr;
};

/// Containment wrapper for schema workers: an unexpected exception (not
/// an IoError, which is the normal stop signal) is logged and converted
/// into a clean shutdown of the worker's endpoints instead of tearing
/// down the whole composite.  The closed result channel is what the
/// fault-tolerant meta_dynamic machinery detects as worker death.
class Supervised final : public core::Process {
 public:
  explicit Supervised(std::shared_ptr<core::Process> inner)
      : inner_(std::move(inner)) {}

  void run() override;
  std::string type_name() const override { return "dpn.par.Supervised"; }
  std::string name() const override;
  std::vector<std::shared_ptr<core::ChannelInputStream>> channel_inputs()
      const override {
    return inner_->channel_inputs();
  }
  std::vector<std::shared_ptr<core::ChannelOutputStream>> channel_outputs()
      const override {
    return inner_->channel_outputs();
  }
  std::vector<std::shared_ptr<core::Process>> subprocesses() const override {
    return {inner_};
  }

  void write_fields(serial::ObjectOutputStream& out) const override;
  static std::shared_ptr<Supervised> read_object(
      serial::ObjectInputStream& in);

 private:
  Supervised() = default;
  std::shared_ptr<core::Process> inner_;
};

/// Figure 16: Scatter -> N workers -> Gather between `in` and `out`.
std::shared_ptr<core::CompositeProcess> meta_static(
    std::shared_ptr<core::ChannelInputStream> in,
    std::shared_ptr<core::ChannelOutputStream> out, std::size_t n_workers,
    const WorkerFactory& factory = {}, const SchemaOptions& options = {});

/// Figures 17/18: Direct -> N workers -> indexed merge between `in` and
/// `out`.
std::shared_ptr<core::CompositeProcess> meta_dynamic(
    std::shared_ptr<core::ChannelInputStream> in,
    std::shared_ptr<core::ChannelOutputStream> out, std::size_t n_workers,
    const WorkerFactory& factory = {}, const SchemaOptions& options = {});

/// Figure 1: Producer -> stage -> Consumer.  `make_stage` receives the
/// channel endpoints between producer and consumer and returns the middle
/// process (a single Worker, or a meta_static/meta_dynamic composite).
/// Returns the complete runnable composite.
std::shared_ptr<core::CompositeProcess> pipeline(
    std::shared_ptr<Task> producer_task, Consumer::Observer observer,
    const std::function<std::shared_ptr<core::Process>(
        std::shared_ptr<core::ChannelInputStream>,
        std::shared_ptr<core::ChannelOutputStream>)>& make_stage,
    const SchemaOptions& options = {});

}  // namespace dpn::par
