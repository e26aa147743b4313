#include "dsp/beam.hpp"

#include <cmath>
#include <numbers>

#include "io/data.hpp"

namespace dpn::dsp {

PlaneWaveSource::PlaneWaveSource(std::shared_ptr<ChannelOutputStream> out,
                                 double frequency, double delay_samples,
                                 double noise_amplitude, std::uint64_t seed,
                                 long iterations)
    : IterativeProcess(iterations),
      frequency_(frequency),
      delay_samples_(delay_samples),
      noise_amplitude_(noise_amplitude),
      seed_(seed) {
  track_output(std::move(out));
}

void PlaneWaveSource::step() {
  if (!rng_) {
    // (Re)derive the noise stream deterministically: one draw per sample,
    // so a source serialized mid-run resumes with identical output.
    rng_ = std::make_unique<dpn::Xoshiro256>(seed_);
    for (std::uint64_t i = 0; i < t_; ++i) rng_->next();
  }
  const double phase = 2.0 * std::numbers::pi * frequency_ *
                       (static_cast<double>(t_) - delay_samples_);
  const double noise =
      noise_amplitude_ *
      (static_cast<double>(rng_->next() >> 11) * 0x1.0p-53 - 0.5) * 2.0;
  io::DataOutputStream out{*output(0)};
  out.write_f64(std::sin(phase) + noise);
  ++t_;
}

void PlaneWaveSource::write_fields(serial::ObjectOutputStream& out) const {
  write_base(out);
  out.write_f64(frequency_);
  out.write_f64(delay_samples_);
  out.write_f64(noise_amplitude_);
  out.write_u64(seed_);
  out.write_u64(t_);
}

std::shared_ptr<PlaneWaveSource> PlaneWaveSource::read_object(
    serial::ObjectInputStream& in) {
  auto process = std::shared_ptr<PlaneWaveSource>(new PlaneWaveSource);
  process->read_base(in);
  process->frequency_ = in.read_f64();
  process->delay_samples_ = in.read_f64();
  process->noise_amplitude_ = in.read_f64();
  process->seed_ = in.read_u64();
  process->t_ = in.read_u64();
  return process;
}

DelaySum::DelaySum(std::vector<std::shared_ptr<ChannelInputStream>> ins,
                   std::shared_ptr<ChannelOutputStream> out,
                   std::vector<std::uint32_t> delays, long iterations)
    : IterativeProcess(iterations), delays_(std::move(delays)) {
  if (ins.empty()) throw UsageError{"DelaySum needs at least one input"};
  if (ins.size() != delays_.size()) {
    throw UsageError{"DelaySum needs one delay per input"};
  }
  for (auto& in : ins) track_input(std::move(in));
  track_output(std::move(out));
}

void DelaySum::on_start() {
  if (aligned_) return;
  // Kahn-style delay: consume and discard each sensor's steering prefix.
  for (std::size_t i = 0; i < input_count(); ++i) {
    io::DataInputStream in{*input(i)};
    for (std::uint32_t k = 0; k < delays_[i]; ++k) in.read_f64();
  }
  aligned_ = true;
}

void DelaySum::step() {
  double sum = 0.0;
  for (std::size_t i = 0; i < input_count(); ++i) {
    io::DataInputStream in{*input(i)};
    sum += in.read_f64();
  }
  io::DataOutputStream out{*output(0)};
  out.write_f64(sum);
}

void DelaySum::write_fields(serial::ObjectOutputStream& out) const {
  write_base(out);
  out.write_varint(delays_.size());
  for (const std::uint32_t d : delays_) out.write_u32(d);
  out.write_bool(aligned_);
}

std::shared_ptr<DelaySum> DelaySum::read_object(serial::ObjectInputStream& in) {
  auto process = std::shared_ptr<DelaySum>(new DelaySum);
  process->read_base(in);
  const std::uint64_t n = in.read_varint();
  process->delays_.resize(n);
  for (auto& d : process->delays_) d = in.read_u32();
  process->aligned_ = in.read_bool();
  return process;
}

SpectralPower::SpectralPower(std::shared_ptr<ChannelInputStream> in,
                             std::shared_ptr<ChannelOutputStream> out,
                             std::size_t frame_size, std::size_t bin,
                             long iterations)
    : IterativeProcess(iterations), frame_size_(frame_size), bin_(bin) {
  if (!is_power_of_two(frame_size)) {
    throw UsageError{"SpectralPower frame size must be a power of two"};
  }
  if (bin >= frame_size) throw UsageError{"bin outside the frame spectrum"};
  track_input(std::move(in));
  track_output(std::move(out));
}

void SpectralPower::step() {
  if (window_.size() != frame_size_) window_ = hann_window(frame_size_);
  io::DataInputStream in{*input(0)};
  std::vector<double> frame(frame_size_);
  for (double& sample : frame) sample = in.read_f64();
  io::DataOutputStream out{*output(0)};
  out.write_f64(bin_power(frame, bin_, window_));
}

void SpectralPower::write_fields(serial::ObjectOutputStream& out) const {
  write_base(out);
  out.write_varint(frame_size_);
  out.write_varint(bin_);
}

std::shared_ptr<SpectralPower> SpectralPower::read_object(
    serial::ObjectInputStream& in) {
  auto process = std::shared_ptr<SpectralPower>(new SpectralPower);
  process->read_base(in);
  process->frame_size_ = static_cast<std::size_t>(in.read_varint());
  process->bin_ = static_cast<std::size_t>(in.read_varint());
  return process;
}

std::vector<double> arrival_delays(std::size_t sensors,
                                   double spacing_samples, double bearing) {
  std::vector<double> delays(sensors);
  for (std::size_t i = 0; i < sensors; ++i) {
    delays[i] = static_cast<double>(i) * spacing_samples * std::sin(bearing);
  }
  return delays;
}

std::vector<std::uint32_t> steering_delays(std::size_t sensors,
                                           double spacing_samples,
                                           double bearing) {
  const std::vector<double> raw =
      arrival_delays(sensors, spacing_samples, bearing);
  // A sensor the wave reaches later carries a *delayed* copy of the
  // signal; discarding that many samples advances its stream back into
  // alignment.  Shift so the earliest sensor discards zero.
  double min_raw = raw.front();
  for (const double d : raw) min_raw = std::min(min_raw, d);
  std::vector<std::uint32_t> out(sensors);
  for (std::size_t i = 0; i < sensors; ++i) {
    out[i] = static_cast<std::uint32_t>(std::llround(raw[i] - min_raw));
  }
  return out;
}

namespace {
[[maybe_unused]] const bool kRegistered =
    serial::register_type<PlaneWaveSource>("dpn.dsp.PlaneWaveSource") &&
    serial::register_type<DelaySum>("dpn.dsp.DelaySum") &&
    serial::register_type<SpectralPower>("dpn.dsp.SpectralPower");
}

}  // namespace dpn::dsp
