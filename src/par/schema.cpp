#include "par/schema.hpp"

#include "processes/basic.hpp"
#include "processes/copy.hpp"
#include "processes/ledger.hpp"
#include "processes/router.hpp"
#include "support/log.hpp"

namespace dpn::par {

void Supervised::run() {
  try {
    inner_->run();
    return;
  } catch (const IoError&) {
    // The normal stop signal escaped a non-iterative worker; a clean
    // shutdown below is exactly what it wants anyway.
  } catch (const std::exception& e) {
    log::warn("worker '", inner_->name(), "' crashed: ", e.what(),
              " -- containing it (in-flight tasks will be re-issued)");
  }
  // IterativeProcess closes its endpoints on every exit path; this is for
  // worker implementations that don't.
  for (const auto& in : inner_->channel_inputs()) {
    try {
      in->close();
    } catch (...) {
    }
  }
  for (const auto& out : inner_->channel_outputs()) {
    try {
      out->close();
    } catch (...) {
    }
  }
}

std::string Supervised::name() const {
  return "Supervised(" + inner_->name() + ")";
}

void Supervised::write_fields(serial::ObjectOutputStream& out) const {
  out.write_object(inner_);
}

std::shared_ptr<Supervised> Supervised::read_object(
    serial::ObjectInputStream& in) {
  auto process = std::shared_ptr<Supervised>(new Supervised);
  process->inner_ = in.read_object_as<core::Process>();
  return process;
}

namespace {

[[maybe_unused]] const bool kRegistered =
    serial::register_type<Supervised>("dpn.par.Supervised");

std::shared_ptr<core::Channel> make_channel(const SchemaOptions& options,
                                            std::string label) {
  core::ChannelOptions channel_options = options.channel;
  channel_options.label = std::move(label);
  auto channel = std::make_shared<core::Channel>(std::move(channel_options));
  if (options.watch != nullptr) options.watch->watch(channel);
  return channel;
}

std::shared_ptr<core::Process> make_worker(const WorkerFactory& factory,
                                           std::size_t index,
                                           std::shared_ptr<core::ChannelInputStream> in,
                                           std::shared_ptr<core::ChannelOutputStream> out) {
  if (factory) return factory(index, std::move(in), std::move(out));
  return std::make_shared<Worker>(std::move(in), std::move(out));
}

}  // namespace

std::shared_ptr<core::CompositeProcess> meta_static(
    std::shared_ptr<core::ChannelInputStream> in,
    std::shared_ptr<core::ChannelOutputStream> out, std::size_t n_workers,
    const WorkerFactory& factory, const SchemaOptions& options) {
  if (n_workers == 0) throw UsageError{"meta_static needs >= 1 worker"};
  auto composite = std::make_shared<core::CompositeProcess>();

  std::vector<std::shared_ptr<core::ChannelOutputStream>> task_outs;
  std::vector<std::shared_ptr<core::ChannelInputStream>> result_ins;
  for (std::size_t i = 0; i < n_workers; ++i) {
    auto tasks = make_channel(options, "static.task." + std::to_string(i));
    auto results =
        make_channel(options, "static.result." + std::to_string(i));
    composite->add(
        make_worker(factory, i, tasks->input(), results->output()));
    task_outs.push_back(tasks->output());
    result_ins.push_back(results->input());
  }
  composite->add(
      std::make_shared<processes::Scatter>(std::move(in), std::move(task_outs)));
  composite->add(std::make_shared<processes::Gather>(std::move(result_ins),
                                                     std::move(out)));
  return composite;
}

std::shared_ptr<core::CompositeProcess> meta_dynamic(
    std::shared_ptr<core::ChannelInputStream> in,
    std::shared_ptr<core::ChannelOutputStream> out, std::size_t n_workers,
    const WorkerFactory& factory, const SchemaOptions& options) {
  if (n_workers == 0) throw UsageError{"meta_dynamic needs >= 1 worker"};
  auto composite = std::make_shared<core::CompositeProcess>();

  // Worker-failure recovery: the ledger is shared by Direct, Turnstile
  // and Select, and Supervised keeps a crashing worker from tearing down
  // the composite (its closed result channel is the failure signal).  The
  // ledger is shared local state, so the composite cannot be shipped.
  const auto ledger = std::make_shared<processes::WorkerLedger>(n_workers);

  // Workers and their channels.
  std::vector<std::shared_ptr<core::ChannelOutputStream>> task_outs;
  std::vector<std::shared_ptr<core::ChannelInputStream>> result_ins;
  for (std::size_t i = 0; i < n_workers; ++i) {
    auto tasks = make_channel(options, "dynamic.task." + std::to_string(i));
    auto results =
        make_channel(options, "dynamic.result." + std::to_string(i));
    composite->add(std::make_shared<Supervised>(
        make_worker(factory, i, tasks->input(), results->output())));
    task_outs.push_back(tasks->output());
    result_ins.push_back(results->input());
  }

  // Indexed merge (Figure 18): the Turnstile forwards results in arrival
  // order as (worker index, blob) pairs for the Select, and publishes the
  // bare worker indices on the tag stream that drives dispatch.
  auto merged = make_channel(options, "dynamic.merged");
  auto tags = make_channel(options, "dynamic.tags");
  auto turnstile = std::make_shared<processes::Turnstile>(
      std::move(result_ins), merged->output(), tags->output());
  turnstile->set_ledger(ledger);
  composite->add(std::move(turnstile));

  // The "(n)" of Figure 18: an initial 0..N-1 prefix spliced ahead of the
  // completion-order indices, so the first N tasks seed the workers.  The
  // Cons removes itself once the prefix has flowed (Figures 9/10).
  auto prefix = make_channel(options, "dynamic.prefix");
  composite->add(std::make_shared<processes::Sequence>(
      0, prefix->output(), static_cast<long>(n_workers)));
  auto index = make_channel(options, "dynamic.index");
  composite->add(std::make_shared<processes::Cons>(
      prefix->input(), tags->input(), index->output()));

  auto direct = std::make_shared<processes::Direct>(
      std::move(in), index->input(), std::move(task_outs));
  direct->set_ledger(ledger);
  composite->add(std::move(direct));
  // The Select re-orders the pair stream by the task positions the ledger
  // recorded, which survives re-issue.
  auto select = std::make_shared<processes::Select>(merged->input(),
                                                    std::move(out), n_workers);
  select->set_ledger(ledger);
  composite->add(std::move(select));
  return composite;
}

std::shared_ptr<core::CompositeProcess> pipeline(
    std::shared_ptr<Task> producer_task, Consumer::Observer observer,
    const std::function<std::shared_ptr<core::Process>(
        std::shared_ptr<core::ChannelInputStream>,
        std::shared_ptr<core::ChannelOutputStream>)>& make_stage,
    const SchemaOptions& options) {
  auto composite = std::make_shared<core::CompositeProcess>();
  auto tasks = make_channel(options, "pipeline.tasks");
  auto results = make_channel(options, "pipeline.results");
  composite->add(
      std::make_shared<Producer>(std::move(producer_task), tasks->output()));
  composite->add(make_stage(tasks->input(), results->output()));
  composite->add(std::make_shared<Consumer>(results->input(), 0,
                                            std::move(observer)));
  return composite;
}

}  // namespace dpn::par
