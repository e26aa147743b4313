#include "par/generic.hpp"

#include "obs/flight.hpp"

namespace dpn::par {

void write_task(io::DataOutputStream& out,
                const std::shared_ptr<Task>& task) {
  const ByteVector blob = serial::to_bytes(task);
  out.write_bytes({blob.data(), blob.size()});
}

std::shared_ptr<Task> read_task(io::DataInputStream& in) {
  const ByteVector blob = in.read_bytes();
  auto object = serial::from_bytes({blob.data(), blob.size()});
  if (!object) return nullptr;
  auto task = std::dynamic_pointer_cast<Task>(object);
  if (!task) {
    throw SerializationError{"channel blob is not a Task (got '" +
                             object->type_name() + "')"};
  }
  return task;
}

Producer::Producer(std::shared_ptr<Task> task,
                   std::shared_ptr<ChannelOutputStream> out, long iterations)
    : IterativeProcess(iterations), task_(std::move(task)) {
  if (!task_) throw UsageError{"Producer needs a task"};
  track_output(std::move(out));
}

void Producer::step() {
  auto next = task_->run();
  if (!next) throw EndOfStream{"producer task exhausted"};
  DPN_FLIGHT_TOKEN(obs::FlightKind::kTaskDispatch, next->type_name());
  io::DataOutputStream out{*output(0)};
  write_task(out, next);
}

void Producer::write_fields(serial::ObjectOutputStream& out) const {
  write_base(out);
  out.write_object(task_);
}

std::shared_ptr<Producer> Producer::read_object(
    serial::ObjectInputStream& in) {
  auto process = std::shared_ptr<Producer>(new Producer);
  process->read_base(in);
  process->task_ = in.read_object_as<Task>();
  return process;
}

Worker::Worker(std::shared_ptr<ChannelInputStream> in,
               std::shared_ptr<ChannelOutputStream> out, long iterations)
    : IterativeProcess(iterations) {
  track_input(std::move(in));
  track_output(std::move(out));
}

void Worker::step() {
  io::DataInputStream in{*input(0)};
  auto task = read_task(in);
  if (!task) throw SerializationError{"worker received a null task"};
  auto result = task->run();
  DPN_FLIGHT_TOKEN(obs::FlightKind::kTaskComplete, task->type_name());
  io::DataOutputStream out{*output(0)};
  write_task(out, result);
}

void Worker::write_fields(serial::ObjectOutputStream& out) const {
  write_base(out);
}

std::shared_ptr<Worker> Worker::read_object(serial::ObjectInputStream& in) {
  auto process = std::shared_ptr<Worker>(new Worker);
  process->read_base(in);
  return process;
}

Consumer::Consumer(std::shared_ptr<ChannelInputStream> in, long iterations,
                   Observer observer)
    : IterativeProcess(iterations), observer_(std::move(observer)) {
  track_input(std::move(in));
}

void Consumer::step() {
  io::DataInputStream in{*input(0)};
  auto task = read_task(in);
  if (!task) return;  // null results are legal and ignored
  if (observer_) observer_(task);
  auto outcome = task->run();
  if (outcome && std::dynamic_pointer_cast<StopSignal>(outcome)) {
    throw EndOfStream{"consumer requested stop"};
  }
}

void Consumer::write_fields(serial::ObjectOutputStream& out) const {
  if (observer_) {
    throw SerializationError{"Consumer with a local observer cannot ship"};
  }
  write_base(out);
}

std::shared_ptr<Consumer> Consumer::read_object(
    serial::ObjectInputStream& in) {
  auto process = std::shared_ptr<Consumer>(new Consumer);
  process->read_base(in);
  return process;
}

namespace {
[[maybe_unused]] const bool kRegistered =
    serial::register_type<StopSignal>("dpn.par.StopSignal") &&
    serial::register_type<Producer>("dpn.par.Producer") &&
    serial::register_type<Worker>("dpn.par.Worker") &&
    serial::register_type<Consumer>("dpn.par.Consumer");
}

}  // namespace dpn::par
