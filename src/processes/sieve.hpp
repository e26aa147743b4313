#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/channel.hpp"
#include "core/process.hpp"
#include "core/typed.hpp"

/// The self-modifying Sieve of Eratosthenes (paper Figures 7/8): Sift
/// reads primes and inserts a new Modulo filter ahead of itself for each
/// one.  Reconfiguration is initiated by the processes themselves, which
/// is what keeps the computation determinate (Section 3.3).
///
/// The channels the sieve inserts at run time are typed (core/typed.hpp):
/// the filter chain moves i64 values through in-process rings.  Every
/// process reads and writes through TypedReader/TypedWriter, which take
/// the byte path on a plain channel, so the user-supplied `numbers` and
/// `primes` channels may be byte channels (or shipped, or demoted).
namespace dpn::processes {

using core::ChannelInputStream;
using core::ChannelOutputStream;
using core::IterativeProcess;
using I64Reader = core::TypedReader<std::int64_t>;
using I64Writer = core::TypedWriter<std::int64_t>;

/// Passes through every element not divisible by `divisor`.
class Modulo final : public IterativeProcess {
 public:
  Modulo(std::shared_ptr<ChannelInputStream> in,
         std::shared_ptr<ChannelOutputStream> out, std::int64_t divisor,
         long iterations = 0);

  std::string type_name() const override { return "dpn.Modulo"; }
  void write_fields(serial::ObjectOutputStream& out) const override;
  static std::shared_ptr<Modulo> read_object(serial::ObjectInputStream& in);

 protected:
  void on_start() override;
  void step() override;

 private:
  Modulo() = default;
  std::int64_t divisor_ = 1;
  std::optional<I64Reader> in_;
  std::optional<I64Writer> out_;
};

/// The iterative Sift of Figure 8.  Each step reads a prime, forwards it,
/// then inserts a Modulo filter between its upstream and itself: the
/// current input channel is handed to the new Modulo (which continues
/// reading exactly where Sift left off -- no element is lost or repeated)
/// and Sift adopts a fresh channel fed by the Modulo.  The Modulo runs on
/// its own thread, created by Sift itself; threads are joined when the
/// Sift object is destroyed.
class Sift final : public IterativeProcess {
 public:
  Sift(std::shared_ptr<ChannelInputStream> in,
       std::shared_ptr<ChannelOutputStream> out, long iterations = 0,
       std::size_t channel_capacity = io::Pipe::kDefaultCapacity);

  ~Sift() override;

  std::string type_name() const override { return "dpn.Sift"; }
  void write_fields(serial::ObjectOutputStream& out) const override;
  static std::shared_ptr<Sift> read_object(serial::ObjectInputStream& in);

  /// Number of Modulo processes inserted so far.
  std::size_t filters_inserted() const;

 protected:
  void on_start() override;
  void step() override;

 private:
  Sift() = default;

  std::size_t channel_capacity_ = io::Pipe::kDefaultCapacity;
  // in_ is rebuilt by every insertion: the input is then a fresh channel.
  std::optional<I64Reader> in_;
  std::optional<I64Writer> out_;
  mutable std::mutex spawn_mutex_;
  std::vector<std::shared_ptr<core::Process>> children_;
  std::vector<std::jthread> threads_;
};

/// The recursive Sift of Figure 7.  Where the iterative Sift stays in the
/// graph and accumulates filters ahead of itself, the recursive Sift
/// emits one prime and then *replaces itself*: it hands its input to a
/// new Modulo, hands its output to a new RecursiveSift, starts both on
/// their own threads, and stops -- without closing the endpoints it just
/// gave away.  The running graph becomes
///
///     ... -> Modulo(p) -> RecursiveSift -> Print
///
/// exactly as drawn in the paper's figure.  Both definitions produce the
/// same stream of primes (tested).
class RecursiveSift final : public IterativeProcess {
 public:
  RecursiveSift(std::shared_ptr<ChannelInputStream> in,
                std::shared_ptr<ChannelOutputStream> out,
                std::size_t channel_capacity = io::Pipe::kDefaultCapacity);

  std::string type_name() const override { return "dpn.RecursiveSift"; }
  void write_fields(serial::ObjectOutputStream& out) const override;
  static std::shared_ptr<RecursiveSift> read_object(
      serial::ObjectInputStream& in);

  /// Modulo filters inserted so far by this process and its successors.
  std::size_t filters_inserted() const { return filters_->load(); }

 protected:
  void step() override;

 private:
  RecursiveSift() = default;

  std::size_t channel_capacity_ = io::Pipe::kDefaultCapacity;
  // Shared down the chain of successors.
  std::shared_ptr<std::atomic<std::size_t>> filters_ =
      std::make_shared<std::atomic<std::size_t>>(0);
  // The replacement subgraph; owned by this (stopped) process so the
  // threads outlive the recursion step and join at teardown.
  std::vector<std::shared_ptr<core::Process>> successors_;
  std::vector<std::jthread> threads_;
};

}  // namespace dpn::processes
