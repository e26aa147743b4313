#include "processes/sieve.hpp"

#include "sched/scheduler.hpp"
#include "support/log.hpp"

namespace dpn::processes {

namespace {

/// Runs a runtime-inserted process (Figure 7/8 self-reconfiguration) on
/// whatever execution substrate the parent is using: a sibling fiber when
/// the parent runs on the M:N scheduler, else a dedicated thread tracked
/// in `threads` (the caller holds the spawn lock).
void spawn_inserted(std::shared_ptr<core::Process> process, const char* what,
                    std::vector<std::jthread>& threads) {
  auto body = [process = std::move(process), what] {
    try {
      process->run();
    } catch (const IoError&) {
      // Graceful stop via the termination cascade.
    } catch (const std::exception& e) {
      log::error(what, " failed: ", e.what());
    }
  };
  if (sched::spawn_detached(body, what)) return;
  threads.emplace_back(std::move(body));
}

/// Reads the next value, or throws EndOfStream -- the byte path's
/// DataInputStream::read_i64 contract, which the termination cascade
/// relies on.
std::int64_t next_value(I64Reader& in) {
  const std::optional<std::int64_t> value = in.get();
  if (!value) throw EndOfStream{"sieve input ended"};
  return *value;
}

}  // namespace

Modulo::Modulo(std::shared_ptr<ChannelInputStream> in,
               std::shared_ptr<ChannelOutputStream> out, std::int64_t divisor,
               long iterations)
    : IterativeProcess(iterations), divisor_(divisor) {
  if (divisor == 0) throw UsageError{"Modulo divisor must be nonzero"};
  track_input(std::move(in));
  track_output(std::move(out));
}

void Modulo::on_start() {
  in_.emplace(input(0));
  out_.emplace(output(0));
}

void Modulo::step() {
  const std::int64_t value = next_value(*in_);
  if (value % divisor_ != 0) out_->put(value);
}

void Modulo::write_fields(serial::ObjectOutputStream& out) const {
  write_base(out);
  out.write_i64(divisor_);
}

std::shared_ptr<Modulo> Modulo::read_object(serial::ObjectInputStream& in) {
  auto process = std::shared_ptr<Modulo>(new Modulo);
  process->read_base(in);
  process->divisor_ = in.read_i64();
  return process;
}

Sift::Sift(std::shared_ptr<ChannelInputStream> in,
           std::shared_ptr<ChannelOutputStream> out, long iterations,
           std::size_t channel_capacity)
    : IterativeProcess(iterations), channel_capacity_(channel_capacity) {
  track_input(std::move(in));
  track_output(std::move(out));
}

Sift::~Sift() {
  // jthread members join; by the time a Sift is destroyed the termination
  // cascade (Section 3.4) has stopped every inserted Modulo.
}

void Sift::on_start() {
  in_.emplace(input(0));
  out_.emplace(output(0));
}

void Sift::step() {
  const std::int64_t prime = next_value(*in_);
  out_->put(prime);

  // Insert a Modulo between our upstream and ourselves (Figure 8).  The
  // Modulo takes over our current input channel mid-stream; we adopt a
  // fresh channel that it feeds.
  auto channel = core::make_typed_channel<std::int64_t>(
      {.capacity = channel_capacity_});
  auto upstream = release_input(0);
  auto filter =
      std::make_shared<Modulo>(std::move(upstream), channel->output(), prime);
  in_.emplace(track_input(channel->input()));

  std::scoped_lock lock{spawn_mutex_};
  children_.push_back(filter);
  spawn_inserted(std::move(filter), "Modulo filter", threads_);
}

std::size_t Sift::filters_inserted() const {
  std::scoped_lock lock{spawn_mutex_};
  return children_.size();
}

void Sift::write_fields(serial::ObjectOutputStream& out) const {
  {
    std::scoped_lock lock{spawn_mutex_};
    if (!children_.empty()) {
      throw SerializationError{
          "Sift cannot be shipped after it has inserted filters (the "
          "filters run on local threads)"};
    }
  }
  write_base(out);
  out.write_u64(channel_capacity_);
}

std::shared_ptr<Sift> Sift::read_object(serial::ObjectInputStream& in) {
  auto process = std::shared_ptr<Sift>(new Sift);
  process->read_base(in);
  process->channel_capacity_ = static_cast<std::size_t>(in.read_u64());
  return process;
}

RecursiveSift::RecursiveSift(std::shared_ptr<ChannelInputStream> in,
                             std::shared_ptr<ChannelOutputStream> out,
                             std::size_t channel_capacity)
    : channel_capacity_(channel_capacity) {
  track_input(std::move(in));
  track_output(std::move(out));
}

void RecursiveSift::step() {
  // One step per instance: the process replaces itself after its first
  // prime, so its typed endpoints are built here, once.
  I64Reader in{input(0)};
  const std::int64_t prime = next_value(in);
  I64Writer{output(0)}.put(prime);

  // Replace ourselves (Figure 7): a Modulo filter takes over our input, a
  // fresh RecursiveSift takes over our output, and we step aside.  The
  // handed-off endpoints are released from tracking so our stop does not
  // close them; data flows through the successors without interruption.
  auto filtered = core::make_typed_channel<std::int64_t>(
      {.capacity = channel_capacity_});
  auto upstream = release_input(0);
  auto downstream = release_output(0);
  auto filter = std::make_shared<Modulo>(std::move(upstream),
                                         filtered->output(), prime);
  auto successor = std::make_shared<RecursiveSift>(
      filtered->input(), std::move(downstream), channel_capacity_);
  successor->filters_ = filters_;
  filters_->fetch_add(1);
  successors_.push_back(filter);
  successors_.push_back(successor);
  spawn_inserted(std::move(filter), "Modulo filter", threads_);
  spawn_inserted(std::move(successor), "RecursiveSift successor", threads_);
  throw EndOfStream{"RecursiveSift replaced itself"};
}

void RecursiveSift::write_fields(serial::ObjectOutputStream& out) const {
  if (!successors_.empty()) {
    throw SerializationError{
        "RecursiveSift cannot be shipped after replacing itself"};
  }
  write_base(out);
  out.write_u64(channel_capacity_);
}

std::shared_ptr<RecursiveSift> RecursiveSift::read_object(
    serial::ObjectInputStream& in) {
  auto process = std::shared_ptr<RecursiveSift>(new RecursiveSift);
  process->read_base(in);
  process->channel_capacity_ = static_cast<std::size_t>(in.read_u64());
  return process;
}

namespace {
[[maybe_unused]] const bool kRegistered =
    serial::register_type<Modulo>("dpn.Modulo") &&
    serial::register_type<Sift>("dpn.Sift") &&
    serial::register_type<RecursiveSift>("dpn.RecursiveSift");
}

}  // namespace dpn::processes
