#include "processes/basic.hpp"

namespace dpn::processes {

Constant::Constant(std::int64_t value,
                   std::shared_ptr<ChannelOutputStream> out, long iterations)
    : IterativeProcess(iterations), value_(value) {
  track_output(std::move(out));
}

void Constant::step() {
  io::DataOutputStream data{*output(0)};
  data.write_i64(value_);
}

void Constant::write_fields(serial::ObjectOutputStream& out) const {
  write_base(out);
  out.write_i64(value_);
}

std::shared_ptr<Constant> Constant::read_object(
    serial::ObjectInputStream& in) {
  auto process = std::shared_ptr<Constant>(new Constant);
  process->read_base(in);
  process->value_ = in.read_i64();
  return process;
}

ConstantF64::ConstantF64(double value,
                         std::shared_ptr<ChannelOutputStream> out,
                         long iterations)
    : IterativeProcess(iterations), value_(value) {
  track_output(std::move(out));
}

void ConstantF64::step() {
  io::DataOutputStream data{*output(0)};
  data.write_f64(value_);
}

void ConstantF64::write_fields(serial::ObjectOutputStream& out) const {
  write_base(out);
  out.write_f64(value_);
}

std::shared_ptr<ConstantF64> ConstantF64::read_object(
    serial::ObjectInputStream& in) {
  auto process = std::shared_ptr<ConstantF64>(new ConstantF64);
  process->read_base(in);
  process->value_ = in.read_f64();
  return process;
}

Sequence::Sequence(std::int64_t start,
                   std::shared_ptr<ChannelOutputStream> out, long iterations,
                   std::int64_t stride)
    : IterativeProcess(iterations), next_(start), stride_(stride) {
  track_output(std::move(out));
}

void Sequence::step() {
  io::DataOutputStream data{*output(0)};
  data.write_i64(next_);
  next_ += stride_;
}

void Sequence::write_fields(serial::ObjectOutputStream& out) const {
  write_base(out);
  out.write_i64(next_);
  out.write_i64(stride_);
}

std::shared_ptr<Sequence> Sequence::read_object(
    serial::ObjectInputStream& in) {
  auto process = std::shared_ptr<Sequence>(new Sequence);
  process->read_base(in);
  process->next_ = in.read_i64();
  process->stride_ = in.read_i64();
  return process;
}

Print::Print(std::shared_ptr<ChannelInputStream> in, long iterations,
             std::string label, std::FILE* sink)
    : IterativeProcess(iterations), label_(std::move(label)), sink_(sink) {
  track_input(std::move(in));
}

void Print::step() {
  io::DataInputStream data{*input(0)};
  const std::int64_t value = data.read_i64();
  if (label_.empty()) {
    std::fprintf(sink_, "%lld\n", static_cast<long long>(value));
  } else {
    std::fprintf(sink_, "%s: %lld\n", label_.c_str(),
                 static_cast<long long>(value));
  }
  std::fflush(sink_);
}

void Print::write_fields(serial::ObjectOutputStream& out) const {
  write_base(out);
  out.write_string(label_);
}

std::shared_ptr<Print> Print::read_object(serial::ObjectInputStream& in) {
  auto process = std::shared_ptr<Print>(new Print);
  process->read_base(in);
  process->label_ = in.read_string();
  process->sink_ = stdout;
  return process;
}

PrintF64::PrintF64(std::shared_ptr<ChannelInputStream> in, long iterations,
                   std::string label, std::FILE* sink)
    : IterativeProcess(iterations), label_(std::move(label)), sink_(sink) {
  track_input(std::move(in));
}

void PrintF64::step() {
  io::DataInputStream data{*input(0)};
  const double value = data.read_f64();
  if (label_.empty()) {
    std::fprintf(sink_, "%.17g\n", value);
  } else {
    std::fprintf(sink_, "%s: %.17g\n", label_.c_str(), value);
  }
  std::fflush(sink_);
}

void PrintF64::write_fields(serial::ObjectOutputStream& out) const {
  write_base(out);
  out.write_string(label_);
}

std::shared_ptr<PrintF64> PrintF64::read_object(
    serial::ObjectInputStream& in) {
  auto process = std::shared_ptr<PrintF64>(new PrintF64);
  process->read_base(in);
  process->label_ = in.read_string();
  process->sink_ = stdout;
  return process;
}

Collect::Collect(std::shared_ptr<ChannelInputStream> in,
                 std::shared_ptr<CollectSink<std::int64_t>> sink,
                 long iterations)
    : IterativeProcess(iterations), sink_(std::move(sink)) {
  track_input(std::move(in));
}

void Collect::step() {
  io::DataInputStream data{*input(0)};
  sink_->push(data.read_i64());
}

CollectF64::CollectF64(std::shared_ptr<ChannelInputStream> in,
                       std::shared_ptr<CollectSink<double>> sink,
                       long iterations)
    : IterativeProcess(iterations), sink_(std::move(sink)) {
  track_input(std::move(in));
}

void CollectF64::step() {
  io::DataInputStream data{*input(0)};
  sink_->push(data.read_f64());
}

namespace {
[[maybe_unused]] const bool kRegistered =
    serial::register_type<Constant>("dpn.Constant") &&
    serial::register_type<ConstantF64>("dpn.ConstantF64") &&
    serial::register_type<Sequence>("dpn.Sequence") &&
    serial::register_type<Print>("dpn.Print") &&
    serial::register_type<PrintF64>("dpn.PrintF64");
}

}  // namespace dpn::processes
