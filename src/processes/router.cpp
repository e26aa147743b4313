#include "processes/router.hpp"

#include "io/data.hpp"
#include "support/error.hpp"
#include "support/log.hpp"

namespace dpn::processes {

Scatter::Scatter(std::shared_ptr<ChannelInputStream> in,
                 std::vector<std::shared_ptr<ChannelOutputStream>> outs,
                 long iterations)
    : IterativeProcess(iterations) {
  if (outs.empty()) throw UsageError{"Scatter needs at least one output"};
  track_input(std::move(in));
  for (auto& out : outs) track_output(std::move(out));
}

void Scatter::step() {
  io::DataInputStream in{*input(0)};
  for (std::size_t i = 0; i < output_count(); ++i) {
    const ByteVector blob = in.read_bytes();
    io::DataOutputStream out{*output(i)};
    out.write_bytes({blob.data(), blob.size()});
  }
}

void Scatter::write_fields(serial::ObjectOutputStream& out) const {
  write_base(out);
}

std::shared_ptr<Scatter> Scatter::read_object(serial::ObjectInputStream& in) {
  auto process = std::shared_ptr<Scatter>(new Scatter);
  process->read_base(in);
  return process;
}

Gather::Gather(std::vector<std::shared_ptr<ChannelInputStream>> ins,
               std::shared_ptr<ChannelOutputStream> out, long iterations)
    : IterativeProcess(iterations) {
  if (ins.empty()) throw UsageError{"Gather needs at least one input"};
  for (auto& in : ins) track_input(std::move(in));
  track_output(std::move(out));
}

void Gather::step() {
  io::DataOutputStream out{*output(0)};
  for (std::size_t i = 0; i < input_count(); ++i) {
    io::DataInputStream in{*input(i)};
    const ByteVector blob = in.read_bytes();
    out.write_bytes({blob.data(), blob.size()});
  }
}

void Gather::write_fields(serial::ObjectOutputStream& out) const {
  write_base(out);
}

std::shared_ptr<Gather> Gather::read_object(serial::ObjectInputStream& in) {
  auto process = std::shared_ptr<Gather>(new Gather);
  process->read_base(in);
  return process;
}

Direct::Direct(std::shared_ptr<ChannelInputStream> in,
               std::shared_ptr<ChannelInputStream> order,
               std::vector<std::shared_ptr<ChannelOutputStream>> outs,
               long iterations)
    : IterativeProcess(iterations) {
  if (outs.empty()) throw UsageError{"Direct needs at least one output"};
  track_input(std::move(in));
  track_input(std::move(order));
  for (auto& out : outs) track_output(std::move(out));
}

void Direct::step() {
  if (!ledger_) {
    io::DataInputStream order{*input(1)};
    const std::int64_t index = order.read_i64();
    if (index < 0 || static_cast<std::size_t>(index) >= output_count()) {
      throw IoError{"Direct: index " + std::to_string(index) +
                    " out of range for " + std::to_string(output_count()) +
                    " outputs"};
    }
    io::DataInputStream in{*input(0)};
    const ByteVector blob = in.read_bytes();
    io::DataOutputStream out{*output(static_cast<std::size_t>(index))};
    out.write_bytes({blob.data(), blob.size()});
    return;
  }

  // Recovery mode.  Re-issues may have been queued while we were blocked
  // elsewhere; serve them before waiting on the tag stream again.
  serve_reissues();
  finish_if_quiescent();
  io::DataInputStream order{*input(1)};
  const std::int64_t index = order.read_i64();
  if (index == -1) {
    // Wake directive from the Turnstile: a worker died and its
    // unacknowledged tasks await re-issue.
    serve_reissues();
    finish_if_quiescent();
    return;
  }
  if (index < 0 || static_cast<std::size_t>(index) >= output_count()) {
    throw IoError{"Direct: index " + std::to_string(index) +
                  " out of range for " + std::to_string(output_count()) +
                  " outputs"};
  }
  if (draining_) {
    // The tag only requests a fresh task and there are none left; the
    // acknowledgement behind it may have been the last one, though.
    finish_if_quiescent();
    return;
  }
  ByteVector blob;
  try {
    io::DataInputStream in{*input(0)};
    blob = in.read_bytes();
  } catch (const EndOfStream&) {
    draining_ = true;
    finish_if_quiescent();
    return;
  }
  dispatch(static_cast<std::size_t>(index), ledger_->next_position(),
           std::move(blob));
}

void Direct::dispatch(std::size_t target, std::uint64_t position,
                      ByteVector blob) {
  for (;;) {
    if (!ledger_->reachable(target)) {
      const auto survivor = ledger_->pick_survivor(target);
      if (!survivor) {
        ledger_->set_fatal();
        throw EndOfStream{"Direct: no reachable workers left"};
      }
      target = *survivor;
    }
    // The ledger stores its own copy: ours must stay valid across a
    // concurrent fail_worker sweeping the record away.
    ledger_->record_dispatch(target, position, blob);
    try {
      io::DataOutputStream out{*output(target)};
      out.write_bytes({blob.data(), blob.size()});
      return;
    } catch (const IoError&) {
      // The worker's task channel is gone.  Only retract *this* dispatch
      // and stop targeting the worker -- results it already produced may
      // still be queued at the Turnstile, so declaring it failed here
      // (and re-issuing acknowledged-in-flight work) would duplicate
      // output.  The Turnstile's EOF sentinel does the sweeping.
      ledger_->retract_dispatch(target, position);
      ledger_->mark_unreachable(target);
    }
  }
}

void Direct::serve_reissues() {
  while (auto item = ledger_->take_reissue()) {
    const auto survivor = ledger_->pick_survivor(output_count() - 1);
    if (!survivor) {
      ledger_->set_fatal();
      throw EndOfStream{"Direct: no reachable workers left"};
    }
    dispatch(*survivor, item->first, std::move(item->second));
  }
}

void Direct::finish_if_quiescent() {
  if (draining_ && ledger_->quiescent()) {
    throw EndOfStream{"Direct: all tasks dispatched and acknowledged"};
  }
}

void Direct::write_fields(serial::ObjectOutputStream& out) const {
  if (ledger_) {
    throw SerializationError{
        "Direct cannot be shipped with a worker ledger attached (the "
        "ledger is shared local state)"};
  }
  write_base(out);
}

std::shared_ptr<Direct> Direct::read_object(serial::ObjectInputStream& in) {
  auto process = std::shared_ptr<Direct>(new Direct);
  process->read_base(in);
  return process;
}

Turnstile::Turnstile(std::vector<std::shared_ptr<ChannelInputStream>> ins,
                     std::shared_ptr<ChannelOutputStream> data_out,
                     std::shared_ptr<ChannelOutputStream> tag_out,
                     long iterations)
    : IterativeProcess(iterations) {
  if (ins.empty()) throw UsageError{"Turnstile needs at least one input"};
  for (auto& in : ins) track_input(std::move(in));
  track_output(std::move(data_out));
  track_output(std::move(tag_out));
}

Turnstile::~Turnstile() {
  arrivals_.close();
  // jthread members join here; close_all() has already woken any
  // forwarder still blocked on a channel read.
}

void Turnstile::on_start() {
  live_forwarders_.store(input_count());
  forwarders_.reserve(input_count());
  for (std::size_t i = 0; i < input_count(); ++i) {
    auto source = input(i);
    forwarders_.emplace_back([this, i, source] {
      try {
        io::DataInputStream in{*source};
        for (;;) {
          ByteVector blob = in.read_bytes();
          arrivals_.push({static_cast<std::int64_t>(i), std::move(blob)});
        }
      } catch (const IoError&) {
        // Input ended or the turnstile is shutting down.
      } catch (const std::exception& e) {
        log::error("Turnstile forwarder ", i, " failed: ", e.what());
      }
      // The sentinel trails every real arrival of this worker in the
      // queue, so the step thread sees it only after acknowledging them.
      arrivals_.push({static_cast<std::int64_t>(i), ByteVector{}, true});
      if (live_forwarders_.fetch_sub(1) == 1) arrivals_.close();
    });
  }
}

void Turnstile::step() {
  auto arrival = arrivals_.pop();
  if (!arrival) throw EndOfStream{"all turnstile inputs ended"};
  if (arrival->eof) {
    handle_worker_eof(arrival->tag);
    return;
  }
  // Acknowledge before forwarding: the Select relies on every arrival it
  // reads already being acknowledged (see WorkerLedger::map_arrival).
  if (ledger_) ledger_->ack_result(static_cast<std::size_t>(arrival->tag));
  // The data path carries (worker index, blob) pairs; losing it means the
  // consumer is gone, so the IoError propagates and stops us.
  io::DataOutputStream data{*output(0)};
  data.write_i64(arrival->tag);
  data.write_bytes({arrival->blob.data(), arrival->blob.size()});
  // The tag path only requests future dispatch; once the dispatch side
  // has terminated (producer exhausted), keep draining results without it
  // so the tail of the computation still reaches the consumer.
  if (!tags_dead_) {
    try {
      io::DataOutputStream tags{*output(1)};
      tags.write_i64(arrival->tag);
    } catch (const IoError&) {
      tags_dead_ = true;
      try {
        output(1)->close();
      } catch (...) {
      }
    }
  }
}

void Turnstile::on_stop() { arrivals_.close(); }

void Turnstile::handle_worker_eof(std::int64_t tag) {
  if (!ledger_) return;
  // Marks the worker unreachable either way; moves unacknowledged
  // dispatches (if any) to the re-issue queue.
  const std::size_t moved =
      ledger_->fail_worker(static_cast<std::size_t>(tag));
  if (moved == 0) return;
  if (!tags_dead_) {
    try {
      io::DataOutputStream tags{*output(1)};
      tags.write_i64(-1);  // wake the Direct: re-issues are queued
      return;
    } catch (const IoError&) {
      tags_dead_ = true;
      try {
        output(1)->close();
      } catch (...) {
      }
    }
  }
  // The dispatch side is gone while work awaits re-issue: the lost
  // results can never be reproduced.
  ledger_->set_fatal();
}

void Turnstile::write_fields(serial::ObjectOutputStream& out) const {
  if (!forwarders_.empty()) {
    throw SerializationError{
        "Turnstile cannot be shipped once started (forwarder threads are "
        "local)"};
  }
  if (ledger_) {
    throw SerializationError{
        "Turnstile cannot be shipped with a worker ledger attached (the "
        "ledger is shared local state)"};
  }
  write_base(out);
}

std::shared_ptr<Turnstile> Turnstile::read_object(
    serial::ObjectInputStream& in) {
  auto process = std::shared_ptr<Turnstile>(new Turnstile);
  process->read_base(in);
  return process;
}

Select::Select(std::shared_ptr<ChannelInputStream> pairs,
               std::shared_ptr<ChannelOutputStream> out,
               std::size_t n_workers, long iterations)
    : IterativeProcess(iterations), n_workers_(n_workers) {
  if (n_workers == 0) throw UsageError{"Select needs >= 1 worker"};
  track_input(std::move(pairs));
  track_output(std::move(out));
}

void Select::read_arrival() {
  io::DataInputStream pairs{*input(0)};
  const std::int64_t tag = pairs.read_i64();
  ByteVector blob = pairs.read_bytes();
  if (ledger_) {
    // Per-worker FIFO arrival order is the worker's dispatch order, so
    // the ledger can map this arrival back to its global task position --
    // correct even when the task was re-issued to this worker after
    // another one died.
    const std::uint64_t position =
        ledger_->map_arrival(static_cast<std::size_t>(tag));
    by_position_[position] = std::move(blob);
    return;
  }
  arrival_tags_.push_back(tag);
  buffered_[tag].push_back(std::move(blob));
}

void Select::step_ledger() {
  try {
    for (;;) {
      const auto it = by_position_.find(next_task_);
      if (it != by_position_.end()) {
        io::DataOutputStream out{*output(0)};
        out.write_bytes({it->second.data(), it->second.size()});
        by_position_.erase(it);
        ++next_task_;
        return;
      }
      read_arrival();
    }
  } catch (const EndOfStream&) {
    // The pair stream ended.  Clean completion means every fresh task's
    // result was emitted in position order; anything else is lost work.
    // (During a consumer-initiated early stop we never get here -- the
    // write above throws ChannelClosed first and cascades normally.)
    if (ledger_->fatal() || next_task_ < ledger_->fresh_dispatched() ||
        !by_position_.empty()) {
      throw WorkerLost{
          "meta_dynamic: worker(s) died and " +
          std::to_string(ledger_->fresh_dispatched() - next_task_) +
          " task result(s) could not be recovered"};
    }
    throw;
  }
}

void Select::step() {
  if (ledger_) {
    step_ledger();
    return;
  }
  // Reconstruct the index stream the Direct follows: task j went to
  // worker j for the initial prefix, then to the worker that produced
  // arrival j-N.  Task j's result cannot arrive before arrival j-N has
  // happened (its dispatch was triggered by it), so these reads never
  // overshoot the stream.
  std::int64_t need = 0;
  if (next_task_ < n_workers_) {
    need = static_cast<std::int64_t>(next_task_);
  } else {
    const std::uint64_t arrival_index = next_task_ - n_workers_;
    while (arrival_tags_.size() <= arrival_index) read_arrival();
    need = arrival_tags_[arrival_index];
  }
  auto& queue = buffered_[need];
  while (queue.empty()) read_arrival();
  io::DataOutputStream out{*output(0)};
  out.write_bytes({queue.front().data(), queue.front().size()});
  queue.pop_front();
  ++next_task_;
}

void Select::write_fields(serial::ObjectOutputStream& out) const {
  if (ledger_) {
    throw SerializationError{
        "Select cannot be shipped with a worker ledger attached (the "
        "ledger is shared local state)"};
  }
  write_base(out);
  out.write_u64(n_workers_);
  out.write_u64(next_task_);
  out.write_varint(arrival_tags_.size());
  for (const std::int64_t tag : arrival_tags_) out.write_i64(tag);
  out.write_varint(buffered_.size());
  for (const auto& [tag, queue] : buffered_) {
    out.write_i64(tag);
    out.write_varint(queue.size());
    for (const auto& blob : queue) out.write_bytes({blob.data(), blob.size()});
  }
}

std::shared_ptr<Select> Select::read_object(serial::ObjectInputStream& in) {
  auto process = std::shared_ptr<Select>(new Select);
  process->read_base(in);
  process->n_workers_ = in.read_u64();
  process->next_task_ = in.read_u64();
  const std::uint64_t n_arrivals = in.read_varint();
  for (std::uint64_t i = 0; i < n_arrivals; ++i) {
    process->arrival_tags_.push_back(in.read_i64());
  }
  const std::uint64_t n_tags = in.read_varint();
  for (std::uint64_t i = 0; i < n_tags; ++i) {
    const std::int64_t tag = in.read_i64();
    const std::uint64_t n_blobs = in.read_varint();
    auto& queue = process->buffered_[tag];
    for (std::uint64_t j = 0; j < n_blobs; ++j) {
      queue.push_back(in.read_bytes());
    }
  }
  return process;
}

namespace {
[[maybe_unused]] const bool kRegistered =
    serial::register_type<Scatter>("dpn.Scatter") &&
    serial::register_type<Gather>("dpn.Gather") &&
    serial::register_type<Direct>("dpn.Direct") &&
    serial::register_type<Turnstile>("dpn.Turnstile") &&
    serial::register_type<Select>("dpn.Select");
}

}  // namespace dpn::processes
