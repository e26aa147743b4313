#include "processes/arith.hpp"

namespace dpn::processes {

Add::Add(std::shared_ptr<ChannelInputStream> a,
         std::shared_ptr<ChannelInputStream> b,
         std::shared_ptr<ChannelOutputStream> out, long iterations)
    : IterativeProcess(iterations) {
  track_input(std::move(a));
  track_input(std::move(b));
  track_output(std::move(out));
}

void Add::step() {
  io::DataInputStream a{*input(0)};
  io::DataInputStream b{*input(1)};
  io::DataOutputStream out{*output(0)};
  const std::int64_t x = a.read_i64();
  const std::int64_t y = b.read_i64();
  // Two's-complement wrap, spelled out: a long Fibonacci run overflows
  // i64, and signed overflow is undefined.
  out.write_i64(static_cast<std::int64_t>(static_cast<std::uint64_t>(x) +
                                          static_cast<std::uint64_t>(y)));
}

void Add::write_fields(serial::ObjectOutputStream& out) const {
  write_base(out);
}

std::shared_ptr<Add> Add::read_object(serial::ObjectInputStream& in) {
  auto process = std::shared_ptr<Add>(new Add);
  process->read_base(in);
  return process;
}

Scale::Scale(std::shared_ptr<ChannelInputStream> in,
             std::shared_ptr<ChannelOutputStream> out, std::int64_t factor,
             long iterations)
    : IterativeProcess(iterations), factor_(factor) {
  track_input(std::move(in));
  track_output(std::move(out));
}

void Scale::step() {
  io::DataInputStream in{*input(0)};
  io::DataOutputStream out{*output(0)};
  out.write_i64(factor_ * in.read_i64());
}

void Scale::write_fields(serial::ObjectOutputStream& out) const {
  write_base(out);
  out.write_i64(factor_);
}

std::shared_ptr<Scale> Scale::read_object(serial::ObjectInputStream& in) {
  auto process = std::shared_ptr<Scale>(new Scale);
  process->read_base(in);
  process->factor_ = in.read_i64();
  return process;
}

Divide::Divide(std::shared_ptr<ChannelInputStream> a,
               std::shared_ptr<ChannelInputStream> b,
               std::shared_ptr<ChannelOutputStream> out, long iterations)
    : IterativeProcess(iterations) {
  track_input(std::move(a));
  track_input(std::move(b));
  track_output(std::move(out));
}

void Divide::step() {
  io::DataInputStream a{*input(0)};
  io::DataInputStream b{*input(1)};
  io::DataOutputStream out{*output(0)};
  const double x = a.read_f64();
  const double y = b.read_f64();
  out.write_f64(x / y);
}

void Divide::write_fields(serial::ObjectOutputStream& out) const {
  write_base(out);
}

std::shared_ptr<Divide> Divide::read_object(serial::ObjectInputStream& in) {
  auto process = std::shared_ptr<Divide>(new Divide);
  process->read_base(in);
  return process;
}

Average::Average(std::shared_ptr<ChannelInputStream> a,
                 std::shared_ptr<ChannelInputStream> b,
                 std::shared_ptr<ChannelOutputStream> out, long iterations)
    : IterativeProcess(iterations) {
  track_input(std::move(a));
  track_input(std::move(b));
  track_output(std::move(out));
}

void Average::step() {
  io::DataInputStream a{*input(0)};
  io::DataInputStream b{*input(1)};
  io::DataOutputStream out{*output(0)};
  const double x = a.read_f64();
  const double y = b.read_f64();
  out.write_f64((x + y) / 2.0);
}

void Average::write_fields(serial::ObjectOutputStream& out) const {
  write_base(out);
}

std::shared_ptr<Average> Average::read_object(serial::ObjectInputStream& in) {
  auto process = std::shared_ptr<Average>(new Average);
  process->read_base(in);
  return process;
}

Equal::Equal(std::shared_ptr<ChannelInputStream> a,
             std::shared_ptr<ChannelInputStream> b,
             std::shared_ptr<ChannelOutputStream> out, long iterations)
    : IterativeProcess(iterations) {
  track_input(std::move(a));
  track_input(std::move(b));
  track_output(std::move(out));
}

void Equal::step() {
  io::DataInputStream a{*input(0)};
  io::DataInputStream b{*input(1)};
  io::DataOutputStream out{*output(0)};
  const double x = a.read_f64();
  const double y = b.read_f64();
  out.write_bool(x == y);
}

void Equal::write_fields(serial::ObjectOutputStream& out) const {
  write_base(out);
}

std::shared_ptr<Equal> Equal::read_object(serial::ObjectInputStream& in) {
  auto process = std::shared_ptr<Equal>(new Equal);
  process->read_base(in);
  return process;
}

Guard::Guard(std::shared_ptr<ChannelInputStream> data,
             std::shared_ptr<ChannelInputStream> control,
             std::shared_ptr<ChannelOutputStream> out, bool stop_after_pass,
             long iterations)
    : IterativeProcess(iterations), stop_after_pass_(stop_after_pass) {
  track_input(std::move(data));
  track_input(std::move(control));
  track_output(std::move(out));
}

void Guard::step() {
  io::DataInputStream data{*input(0)};
  io::DataInputStream control{*input(1)};
  io::DataOutputStream out{*output(0)};
  const double value = data.read_f64();
  const bool pass = control.read_bool();
  if (!pass) return;
  out.write_f64(value);
  if (stop_after_pass_) {
    throw EndOfStream{"Guard passed its element and stopped"};
  }
}

void Guard::write_fields(serial::ObjectOutputStream& out) const {
  write_base(out);
  out.write_bool(stop_after_pass_);
}

std::shared_ptr<Guard> Guard::read_object(serial::ObjectInputStream& in) {
  auto process = std::shared_ptr<Guard>(new Guard);
  process->read_base(in);
  process->stop_after_pass_ = in.read_bool();
  return process;
}

namespace {
[[maybe_unused]] const bool kRegistered =
    serial::register_type<Add>("dpn.Add") &&
    serial::register_type<Scale>("dpn.Scale") &&
    serial::register_type<Divide>("dpn.Divide") &&
    serial::register_type<Average>("dpn.Average") &&
    serial::register_type<Equal>("dpn.Equal") &&
    serial::register_type<Guard>("dpn.Guard");
}

}  // namespace dpn::processes
