#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "core/channel.hpp"
#include "io/typed_ring.hpp"
#include "support/bytes.hpp"

/// Typed endpoints over a Channel: the user-facing face of the zero-copy
/// fast path (see io/typed_ring.hpp for the machinery).
///
/// A channel built with make_typed_channel<T>() carries T values through
/// an in-process ring as long as both endpoints stay local -- no
/// serialize, no pipe memcpy, no deserialize.  The byte-stream layers
/// underneath are fully wired the whole time, just idle; the moment the
/// ship machinery demotes the ring (one endpoint is leaving this address
/// space), TypedWriter/TypedReader fall back to encoding through the
/// channel endpoint with the same Codec, and nothing above them notices.
///
/// The Codec is the bridge between the two planes: it defines the exact
/// bytes a value occupies on the byte path, and the ring charges the
/// channel's traffic counters by that size, so a snapshot of a typed
/// channel is indistinguishable from the byte-path run it replaced --
/// the determinacy matrix leans on this.
namespace dpn::core {

/// Wire format for T: fixed-size, matching what the process would write
/// through a DataOutputStream (big-endian).  Specialize for your token
/// type; encode must emit exactly kWireSize bytes per value.
template <typename T>
struct Codec;

template <>
struct Codec<std::int64_t> {
  static constexpr std::size_t kWireSize = 8;
  static void encode(std::int64_t v, io::OutputStream& out) {
    std::uint8_t buf[8];
    put_u64(buf, static_cast<std::uint64_t>(v));
    out.write({buf, sizeof buf});
  }
  static std::int64_t decode(io::InputStream& in) {
    std::uint8_t buf[8];
    io::read_fully(in, {buf, sizeof buf});
    return static_cast<std::int64_t>(get_u64(buf));
  }
};

template <>
struct Codec<double> {
  static constexpr std::size_t kWireSize = 8;
  static void encode(double v, io::OutputStream& out) {
    std::uint8_t buf[8];
    put_u64(buf, double_to_bits(v));
    out.write({buf, sizeof buf});
  }
  static double decode(io::InputStream& in) {
    std::uint8_t buf[8];
    io::read_fully(in, {buf, sizeof buf});
    return bits_to_double(get_u64(buf));
  }
};

/// Builds a Channel with the typed fast path installed.  The byte
/// capacity in `options` doubles as the ring's bound: capacity /
/// Codec::kWireSize value slots, so Parks-rule back-pressure kicks in at
/// the same data volume either way.
template <typename T, typename C = Codec<T>>
std::shared_ptr<Channel> make_typed_channel(ChannelOptions options = {}) {
  auto channel = std::make_shared<Channel>(options);
  std::size_t slots = options.capacity / C::kWireSize;
  if (slots == 0) slots = 1;
  auto ring = std::make_shared<io::TypedRing<T, C>>(slots);
  ring->set_flight_id(channel->state()->id);
  channel->input()->bind_typed(ring.get());
  channel->output()->bind_typed(ring.get());
  channel->state()->typed = std::move(ring);
  return channel;
}

namespace detail {
template <typename T, typename C>
io::TypedRing<T, C>* typed_ring_of(const std::shared_ptr<ChannelState>& state) {
  if (!state->typed) return nullptr;  // byte channel / remote endpoint
  auto* ring = dynamic_cast<io::TypedRing<T, C>*>(state->typed.get());
  if (ring == nullptr) {
    throw UsageError{"typed endpoint does not match the channel's ring type"};
  }
  // A poisoned ring stays attached: pop must raise WorkerLost (the byte
  // plane never saw the lost values), and push routes to the byte path
  // through the ring's own kDemoted result.
  if (ring->poisoned()) return ring;
  return ring->demoted() ? nullptr : ring;
}
}  // namespace detail

/// Producing typed endpoint.  Ephemeral: construct one over the channel's
/// output endpoint inside the owning process's run() (it is not itself
/// serializable -- the underlying ChannelOutputStream is what ships, and
/// a writer constructed over a reconstructed remote endpoint simply finds
/// no ring and takes the byte path from the first token).
template <typename T, typename C = Codec<T>>
class TypedWriter {
 public:
  explicit TypedWriter(std::shared_ptr<ChannelOutputStream> out)
      : out_(std::move(out)),
        ring_(detail::typed_ring_of<T, C>(out_->state())),
        metrics_(out_->state()->metrics.get()) {}

  /// Blocks while the channel is full; throws ChannelClosed once the
  /// consumer has closed (both via the ring while live, via the byte
  /// plane after a demotion).
  void put(T value) {
    if (ring_ != nullptr) {
      switch (ring_->push(std::move(value))) {
        case io::TypedRingBase::PushResult::kOk:
          // The ring bypasses the endpoint, so charge the channel's
          // counters here -- by wire size, to match the byte path.
          metrics_->on_write(C::kWireSize);
          return;
        case io::TypedRingBase::PushResult::kDemoted:
          // `value` was not consumed: push only moves on kOk.
          ring_ = nullptr;
          break;
      }
    }
    // Byte path: the endpoint charges the counters itself.
    C::encode(value, *out_);
  }

  void close() { out_->close(); }

  bool fast_path() const { return ring_ != nullptr; }

 private:
  std::shared_ptr<ChannelOutputStream> out_;
  io::TypedRing<T, C>* ring_;
  obs::ChannelMetrics* metrics_;
};

/// Consuming typed endpoint; see TypedWriter.  T must additionally be
/// default-constructible (pop target).
template <typename T, typename C = Codec<T>>
class TypedReader {
 public:
  explicit TypedReader(std::shared_ptr<ChannelInputStream> in)
      : in_(std::move(in)),
        ring_(detail::typed_ring_of<T, C>(in_->state())),
        metrics_(in_->state()->metrics.get()) {}

  /// Blocks while the channel is empty; nullopt at end-of-stream.  Throws
  /// WorkerLost if a demotion lost buffered values (never silently
  /// truncates the stream).
  std::optional<T> get() {
    if (ring_ != nullptr) {
      T value{};
      switch (ring_->pop(value)) {
        case io::TypedRingBase::PopResult::kOk:
          metrics_->on_read(C::kWireSize);
          return value;
        case io::TypedRingBase::PopResult::kDemoted:
          // The ring's backlog was flushed into the byte plane ahead of
          // the demotion flag, so switching now loses nothing.
          ring_ = nullptr;
          break;
        case io::TypedRingBase::PopResult::kEof:
          return std::nullopt;
      }
    }
    try {
      return C::decode(*in_);
    } catch (const EndOfStream&) {
      return std::nullopt;
    }
  }

  void close() { in_->close(); }

  bool fast_path() const { return ring_ != nullptr; }

 private:
  std::shared_ptr<ChannelInputStream> in_;
  io::TypedRing<T, C>* ring_;
  obs::ChannelMetrics* metrics_;
};

}  // namespace dpn::core
