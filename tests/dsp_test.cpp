#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "core/network.hpp"
#include "dist/ship.hpp"
#include "dsp/beam.hpp"
#include "dsp/fft.hpp"
#include "processes/basic.hpp"
#include "processes/copy.hpp"

namespace dpn::dsp {
namespace {

using core::Network;
using processes::CollectF64;
using processes::CollectSink;
using processes::Duplicate;

// --- FFT -----------------------------------------------------------------------

TEST(Fft, PowerOfTwoCheck) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(48));
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<Complex> data(12);
  EXPECT_THROW(fft(data), UsageError);
}

TEST(Fft, ImpulseIsFlat) {
  std::vector<Complex> data(16, Complex{0.0, 0.0});
  data[0] = Complex{1.0, 0.0};
  fft(data);
  for (const Complex& bin : data) {
    EXPECT_NEAR(bin.real(), 1.0, 1e-12);
    EXPECT_NEAR(bin.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, PureToneLandsInItsBin) {
  constexpr std::size_t kN = 64;
  constexpr std::size_t kBin = 5;
  std::vector<Complex> data(kN);
  for (std::size_t t = 0; t < kN; ++t) {
    const double angle = 2.0 * std::numbers::pi * kBin *
                         static_cast<double>(t) / kN;
    data[t] = Complex{std::cos(angle), 0.0};
  }
  fft(data);
  for (std::size_t k = 0; k < kN; ++k) {
    const double magnitude = std::abs(data[k]);
    if (k == kBin || k == kN - kBin) {
      EXPECT_NEAR(magnitude, kN / 2.0, 1e-9) << k;
    } else {
      EXPECT_NEAR(magnitude, 0.0, 1e-9) << k;
    }
  }
}

class FftOracle : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftOracle, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  Xoshiro256 rng{n};
  std::vector<Complex> data(n);
  for (auto& value : data) {
    value = Complex{rng.unit() - 0.5, rng.unit() - 0.5};
  }
  std::vector<Complex> fast = data;
  fft(fast);
  const std::vector<Complex> slow = naive_dft(data);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(std::abs(fast[k] - slow[k]), 0.0, 1e-9) << k;
  }
}

TEST_P(FftOracle, InverseRoundTrip) {
  const std::size_t n = GetParam();
  Xoshiro256 rng{n * 3 + 1};
  std::vector<Complex> data(n);
  for (auto& value : data) {
    value = Complex{rng.unit() - 0.5, rng.unit() - 0.5};
  }
  std::vector<Complex> transformed = data;
  fft(transformed);
  ifft(transformed);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(transformed[i] - data[i]), 0.0, 1e-10);
  }
}

TEST_P(FftOracle, ParsevalHolds) {
  const std::size_t n = GetParam();
  Xoshiro256 rng{n * 7 + 5};
  std::vector<Complex> data(n);
  double time_energy = 0.0;
  for (auto& value : data) {
    value = Complex{rng.unit() - 0.5, 0.0};
    time_energy += std::norm(value);
  }
  fft(data);
  double freq_energy = 0.0;
  for (const Complex& bin : data) freq_energy += std::norm(bin);
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n),
              1e-8 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftOracle,
                         ::testing::Values(1, 2, 4, 8, 32, 128, 1024));

TEST(Fft, HannWindowShape) {
  const auto window = hann_window(64);
  EXPECT_NEAR(window[0], 0.0, 1e-12);
  EXPECT_NEAR(window[32], 1.0, 1e-12);  // midpoint of a 64-point Hann
  for (std::size_t i = 1; i < 32; ++i) EXPECT_GT(window[i], window[i - 1]);
}

TEST(Fft, PeakBinFindsTone) {
  constexpr std::size_t kN = 128;
  std::vector<double> frame(kN);
  for (std::size_t t = 0; t < kN; ++t) {
    frame[t] = std::sin(2.0 * std::numbers::pi * 9.0 *
                        static_cast<double>(t) / kN);
  }
  EXPECT_EQ(peak_bin(frame), 9u);
}

// --- Steering geometry ------------------------------------------------------------

TEST(Steering, BroadsideNeedsNoDelays) {
  const auto delays = steering_delays(8, 2.0, 0.0);
  for (const auto d : delays) EXPECT_EQ(d, 0u);
}

TEST(Steering, PositiveBearingDelaysGrowAlongArray) {
  const auto delays = steering_delays(6, 2.0, 0.5);
  EXPECT_EQ(delays[0], 0u);
  for (std::size_t i = 1; i < delays.size(); ++i) {
    EXPECT_GE(delays[i], delays[i - 1]);
  }
  EXPECT_GT(delays.back(), 0u);
}

TEST(Steering, NegativeBearingMirrors) {
  const auto pos = steering_delays(6, 2.0, 0.4);
  const auto neg = steering_delays(6, 2.0, -0.4);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    EXPECT_EQ(pos[i], neg[pos.size() - 1 - i]);
  }
}

// --- Beamforming network ------------------------------------------------------------

/// Runs an S-sensor array observing a wave from `true_bearing` through a
/// bank of beams; returns each beam's average spectral power.
std::vector<double> run_beam_bank(double true_bearing,
                                  const std::vector<double>& bearings,
                                  double noise) {
  constexpr std::size_t kSensors = 8;
  constexpr double kSpacing = 3.0;       // samples of travel per sensor
  constexpr double kFrequency = 1.0 / 16.0;  // cycles per sample
  constexpr std::size_t kFrame = 64;
  constexpr std::size_t kBin = 4;        // kFrequency * kFrame
  constexpr long kFrames = 8;
  constexpr long kSamples = (kFrames + 2) * static_cast<long>(kFrame) + 64;

  Network network;
  const auto arrivals = arrival_delays(kSensors, kSpacing, true_bearing);

  // Sensor sources, each duplicated to every beam.
  std::vector<std::vector<std::shared_ptr<core::ChannelInputStream>>>
      taps(bearings.size());
  for (std::size_t s = 0; s < kSensors; ++s) {
    auto raw = network.make_channel({.capacity = 4096});
    network.add(std::make_shared<PlaneWaveSource>(
        raw->output(), kFrequency, arrivals[s], noise, 100 + s, kSamples));
    std::vector<std::shared_ptr<core::ChannelOutputStream>> copies;
    for (std::size_t b = 0; b < bearings.size(); ++b) {
      auto ch = network.make_channel({.capacity = 4096});
      copies.push_back(ch->output());
      taps[b].push_back(ch->input());
    }
    network.add(std::make_shared<Duplicate>(raw->input(), copies));
  }

  // One delay-and-sum + spectral-power chain per steered beam.
  std::vector<std::shared_ptr<CollectSink<double>>> sinks;
  for (std::size_t b = 0; b < bearings.size(); ++b) {
    auto summed = network.make_channel({.capacity = 4096});
    auto power = network.make_channel({.capacity = 4096});
    network.add(std::make_shared<DelaySum>(
        taps[b], summed->output(),
        steering_delays(kSensors, kSpacing, bearings[b])));
    network.add(std::make_shared<SpectralPower>(summed->input(),
                                                power->output(), kFrame,
                                                kBin));
    // Each sink reads to end-of-stream.  A sink that stopped after
    // kFrames would close its input early, and Duplicate would then cut
    // every sibling beam short at a schedule-dependent point.
    auto sink = std::make_shared<CollectSink<double>>();
    network.add(std::make_shared<CollectF64>(power->input(), sink));
    sinks.push_back(sink);
  }
  network.run();

  // Average each beam's first kFrames powers: a fixed prefix of a
  // determinate history.
  constexpr auto kAveraged = static_cast<std::size_t>(kFrames);
  std::vector<double> averages;
  for (const auto& sink : sinks) {
    const auto values = sink->values();
    EXPECT_GE(values.size(), kAveraged);
    double total = 0.0;
    for (std::size_t i = 0; i < values.size() && i < kAveraged; ++i) {
      total += values[i];
    }
    averages.push_back(total / static_cast<double>(kAveraged));
  }
  return averages;
}

TEST(Beamformer, FindsSourceBearing) {
  const std::vector<double> bearings{-0.7, -0.35, 0.0, 0.35, 0.7};
  const double true_bearing = 0.35;
  const auto powers = run_beam_bank(true_bearing, bearings, /*noise=*/0.1);
  ASSERT_EQ(powers.size(), bearings.size());
  std::size_t best = 0;
  for (std::size_t b = 1; b < powers.size(); ++b) {
    if (powers[b] > powers[best]) best = b;
  }
  EXPECT_EQ(bearings[best], true_bearing);
  // The matched beam dominates beams pointed well away from the source
  // (adjacent beams sit on the main lobe's shoulder, so they are only
  // required to lose, not to collapse).
  for (std::size_t b = 0; b < powers.size(); ++b) {
    if (bearings[b] == true_bearing) continue;
    EXPECT_GT(powers[best], powers[b]) << "beam " << bearings[b];
    if (std::abs(bearings[b] - true_bearing) > 0.5) {
      EXPECT_GT(powers[best], 1.5 * powers[b]) << "beam " << bearings[b];
    }
  }
}

TEST(Beamformer, BroadsideSource) {
  const std::vector<double> bearings{-0.5, 0.0, 0.5};
  const auto powers = run_beam_bank(0.0, bearings, 0.05);
  EXPECT_GT(powers[1], powers[0]);
  EXPECT_GT(powers[1], powers[2]);
}

TEST(Beamformer, DeterminateAcrossRuns) {
  const std::vector<double> bearings{-0.4, 0.0, 0.4};
  const auto a = run_beam_bank(0.4, bearings, 0.2);
  const auto b = run_beam_bank(0.4, bearings, 0.2);
  EXPECT_EQ(a, b);  // bit-identical: noisy input, but a determinate graph
}

TEST(DelaySum, AlignsIntegerDelays) {
  // Two inputs carrying 0..N and a delayed copy; with the matching
  // steering the sum is exactly 2x the aligned stream.
  Network network;
  auto a = network.make_channel({.capacity = 4096});
  auto b = network.make_channel({.capacity = 4096});
  auto out = network.make_channel({.capacity = 4096});
  auto sink = std::make_shared<CollectSink<double>>();
  {
    io::DataOutputStream da{*a->output()};
    io::DataOutputStream db{*b->output()};
    for (int t = 0; t < 20; ++t) da.write_f64(t);        // x[t] = t
    for (int t = -3; t < 17; ++t) db.write_f64(t < 0 ? -1.0 : t);
    a->output()->close();
    b->output()->close();
  }
  network.add(std::make_shared<DelaySum>(
      std::vector{a->input(), b->input()}, out->output(),
      std::vector<std::uint32_t>{0, 3}));
  network.add(std::make_shared<CollectF64>(out->input(), sink));
  network.run();
  const auto values = sink->values();
  ASSERT_GE(values.size(), 17u);
  for (int t = 0; t < 17; ++t) {
    EXPECT_DOUBLE_EQ(values[static_cast<std::size_t>(t)], 2.0 * t);
  }
}

TEST(SpectralPower, ToneBeatsSilence) {
  Network network;
  auto in = network.make_channel({.capacity = 4096});
  auto out = network.make_channel({.capacity = 4096});
  auto sink = std::make_shared<CollectSink<double>>();
  {
    io::DataOutputStream d{*in->output()};
    // Frame 1: a bin-4 tone over 64 samples; frame 2: silence.
    for (int t = 0; t < 64; ++t) {
      d.write_f64(std::sin(2.0 * std::numbers::pi * 4.0 * t / 64.0));
    }
    for (int t = 0; t < 64; ++t) d.write_f64(0.0);
    in->output()->close();
  }
  network.add(
      std::make_shared<SpectralPower>(in->input(), out->output(), 64, 4));
  network.add(std::make_shared<CollectF64>(out->input(), sink));
  network.run();
  ASSERT_EQ(sink->size(), 2u);
  EXPECT_GT(sink->values()[0], 100.0 * (sink->values()[1] + 1e-12));
}

TEST(PlaneWaveSource, NoiseReplaysExactlyAcrossMigration) {
  // A noisy source interrupted at an arbitrary step boundary and shipped
  // to another node must continue with *bit-identical* output: its RNG
  // state is rederived by replaying seed+count (determinate migration).
  constexpr long kSamples = 50;
  const auto make_source = [&](std::shared_ptr<core::ChannelOutputStream> out) {
    return std::make_shared<PlaneWaveSource>(std::move(out), 0.05, 1.5,
                                             /*noise=*/0.3, /*seed=*/99,
                                             kSamples);
  };

  // Reference: uninterrupted run.
  std::vector<double> reference;
  {
    auto ch = std::make_shared<core::Channel>(1 << 16);
    make_source(ch->output())->run();
    io::DataInputStream in{*ch->input()};
    for (long i = 0; i < kSamples; ++i) reference.push_back(in.read_f64());
  }

  // Interrupted run: small channel so the source is backpressured.
  auto node_a = dist::NodeContext::create();
  auto node_b = dist::NodeContext::create();
  auto ch = std::make_shared<core::Channel>(256);
  auto source = make_source(ch->output());
  std::jthread runner{[&] { source->run(); }};

  io::DataInputStream in{*ch->input()};
  std::vector<double> combined;
  for (int i = 0; i < 10; ++i) combined.push_back(in.read_f64());
  source->request_pause();
  // Draining unblocks the writer so it can reach its next step boundary.
  // Gate each read on buffered bytes: an unconditional read could commit
  // to blocking right before the source parks, and then sleep forever
  // (the pause deliberately does not wake the channel's readers).
  while (!source->paused()) {
    if (ch->pipe()->size() >= sizeof(double)) {
      combined.push_back(in.read_f64());
    } else {
      std::this_thread::yield();
    }
  }

  const ByteVector shipment = dist::ship_process(node_a, source);
  source->abandon();
  runner.join();

  auto remote = dist::receive_process(node_b, {shipment.data(),
                                               shipment.size()});
  std::jthread remote_runner{[&] { remote->run(); }};
  while (combined.size() < static_cast<std::size_t>(kSamples)) {
    combined.push_back(in.read_f64());
  }
  ASSERT_EQ(combined.size(), reference.size());
  for (long i = 0; i < kSamples; ++i) {
    EXPECT_DOUBLE_EQ(combined[static_cast<std::size_t>(i)],
                     reference[static_cast<std::size_t>(i)])
        << "sample " << i;
  }
}

}  // namespace
}  // namespace dpn::dsp
