#include "core/channel.hpp"

#include <atomic>
#include <mutex>

#include "obs/flight.hpp"

namespace dpn::core {

namespace {
DistributionHooks g_hooks;
std::mutex g_hooks_mutex;

/// Flips the owning process's observable state to `blocked` for the
/// duration of a channel operation, restoring kRunning on the way out --
/// including the exception paths (EndOfStream, ChannelClosed), where the
/// process is briefly "running" again until its run() winds down.
class BlockedScope {
 public:
  BlockedScope(obs::ProcessStats* owner, obs::ProcessState blocked)
      : owner_(owner) {
    if (owner_ != nullptr) owner_->set_state(blocked);
  }
  ~BlockedScope() {
    if (owner_ != nullptr) owner_->set_state(obs::ProcessState::kRunning);
  }
  BlockedScope(const BlockedScope&) = delete;
  BlockedScope& operator=(const BlockedScope&) = delete;

 private:
  obs::ProcessStats* owner_;
};

/// Byte access to a channel whose typed ring is live would wait on (or
/// feed) a pipe the typed peer never touches.  Demotion is permanent, so
/// the endpoint stops checking once it sees one.
void check_byte_plane(io::TypedRingBase*& typed) {
  if (!typed->demoted()) {
    throw UsageError{"byte access to a typed channel whose ring is live "
                     "(use TypedReader/TypedWriter)"};
  }
  typed = nullptr;
}
}  // namespace

std::uint64_t next_channel_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

void set_distribution_hooks(DistributionHooks hooks) {
  std::scoped_lock lock{g_hooks_mutex};
  g_hooks = std::move(hooks);
}

const DistributionHooks& distribution_hooks() {
  std::scoped_lock lock{g_hooks_mutex};
  return g_hooks;
}

ChannelInputStream::ChannelInputStream(
    std::shared_ptr<ChannelState> state,
    std::shared_ptr<io::SequenceInputStream> sequence)
    : state_(std::move(state)),
      sequence_(std::move(sequence)),
      metrics_(state_->metrics.get()) {}

std::size_t ChannelInputStream::read_some(MutableByteSpan out) {
  if (typed_ != nullptr) check_byte_plane(typed_);
  BlockedScope scope{owner_.get(), obs::ProcessState::kBlockedReading};
  const std::size_t n = sequence_->read_some(out);
  if (n > 0) {
    // A zero-byte return is the end-of-stream probe, not a token.
    metrics_->on_read(n);
    DPN_FLIGHT_TOKEN(obs::FlightKind::kChanRead, state_->label, state_->id, n);
  }
  return n;
}

int ChannelInputStream::read() {
  if (typed_ != nullptr) check_byte_plane(typed_);
  BlockedScope scope{owner_.get(), obs::ProcessState::kBlockedReading};
  const int b = sequence_->read();
  if (b >= 0) {
    metrics_->on_read(1);
    DPN_FLIGHT_TOKEN(obs::FlightKind::kChanRead, state_->label, state_->id, 1);
  }
  return b;
}

void ChannelInputStream::close() {
  DPN_FLIGHT_TOKEN(obs::FlightKind::kChanClose, state_->label, state_->id);
  // Cascading termination must reach a producer parked in the typed ring,
  // not just one parked in the byte pipe -- every teardown path (process
  // exit, kAbortProcess, Network::abort) funnels through this close.
  if (state_->typed) state_->typed->close_read();
  sequence_->close();
}

void ChannelInputStream::read_fully(MutableByteSpan out) {
  if (typed_ != nullptr) check_byte_plane(typed_);
  BlockedScope scope{owner_.get(), obs::ProcessState::kBlockedReading};
  io::read_fully(*sequence_, out);
  metrics_->on_read(out.size());
  DPN_FLIGHT_TOKEN(obs::FlightKind::kChanRead, state_->label, state_->id,
                   out.size());
}

void ChannelInputStream::write_fields(serial::ObjectOutputStream&) const {
  throw SerializationError{
      "ChannelInputStream is serialized via its write_replace hook"};
}

std::shared_ptr<serial::Serializable> ChannelInputStream::write_replace(
    serial::ObjectOutputStream& out) {
  const auto& hooks = distribution_hooks();
  if (!hooks.replace_input) {
    throw UsageError{
        "serializing a channel endpoint requires the distribution layer "
        "(link dpn_dist and create a NodeContext)"};
  }
  return hooks.replace_input(shared_from_this(), out);
}

ChannelOutputStream::ChannelOutputStream(
    std::shared_ptr<ChannelState> state,
    std::shared_ptr<io::SequenceOutputStream> sequence)
    : state_(std::move(state)),
      sequence_(std::move(sequence)),
      metrics_(state_->metrics.get()) {}

void ChannelOutputStream::write(ByteSpan data) {
  if (typed_ != nullptr) check_byte_plane(typed_);
  BlockedScope scope{owner_.get(), obs::ProcessState::kBlockedWriting};
  sequence_->write(data);
  metrics_->on_write(data.size());
  DPN_FLIGHT_TOKEN(obs::FlightKind::kChanWrite, state_->label, state_->id,
                   data.size());
}

void ChannelOutputStream::write_byte(std::uint8_t b) {
  if (typed_ != nullptr) check_byte_plane(typed_);
  BlockedScope scope{owner_.get(), obs::ProcessState::kBlockedWriting};
  sequence_->write_byte(b);
  metrics_->on_write(1);
  DPN_FLIGHT_TOKEN(obs::FlightKind::kChanWrite, state_->label, state_->id, 1);
}

void ChannelOutputStream::write_vectored(ByteSpan a, ByteSpan b) {
  if (typed_ != nullptr) check_byte_plane(typed_);
  BlockedScope scope{owner_.get(), obs::ProcessState::kBlockedWriting};
  sequence_->write_vectored(a, b);
  metrics_->on_write(a.size() + b.size());
  DPN_FLIGHT_TOKEN(obs::FlightKind::kChanWrite, state_->label, state_->id,
                   a.size() + b.size());
}

void ChannelOutputStream::close() {
  DPN_FLIGHT_TOKEN(obs::FlightKind::kChanClose, state_->label, state_->id);
  // End-of-stream for a typed consumer: drain the ring, then kEof.
  if (state_->typed) state_->typed->close_write();
  sequence_->close();
}

void ChannelOutputStream::write_fields(serial::ObjectOutputStream&) const {
  throw SerializationError{
      "ChannelOutputStream is serialized via its write_replace hook"};
}

std::shared_ptr<serial::Serializable> ChannelOutputStream::write_replace(
    serial::ObjectOutputStream& out) {
  const auto& hooks = distribution_hooks();
  if (!hooks.replace_output) {
    throw UsageError{
        "serializing a channel endpoint requires the distribution layer "
        "(link dpn_dist and create a NodeContext)"};
  }
  return hooks.replace_output(shared_from_this(), out);
}

obs::ChannelSnapshot snapshot_channel(const ChannelState& state) {
  obs::ChannelSnapshot c;
  c.id = state.id;
  c.label = state.label;
  c.input_remote = state.input_remote;
  c.output_remote = state.output_remote;
  c.bytes_written =
      state.metrics->bytes_written.load(std::memory_order_relaxed);
  c.tokens_written =
      state.metrics->tokens_written.load(std::memory_order_relaxed);
  c.bytes_read = state.metrics->bytes_read.load(std::memory_order_relaxed);
  c.tokens_read = state.metrics->tokens_read.load(std::memory_order_relaxed);
  if (state.pipe) {
    c.has_pipe = true;
    const io::Pipe::Stats s = state.pipe->stats();
    c.capacity = s.capacity;
    c.buffered = s.size;
    c.occupancy_hwm = s.occupancy_hwm;
    // One histogram sample per wait: its sum and count are the totals.
    c.blocked_read_ns = s.read_block.sum_ns;
    c.blocked_write_ns = s.write_block.sum_ns;
    c.reader_wakeups = s.read_block.count;
    c.writer_wakeups = s.write_block.count;
    c.blocked_readers = static_cast<std::uint32_t>(s.blocked_readers);
    c.blocked_writers = static_cast<std::uint32_t>(s.blocked_writers);
    c.write_closed = s.write_closed;
    c.read_closed = s.read_closed;
    c.read_block = s.read_block;
    c.write_block = s.write_block;
  } else {
    c.capacity = state.capacity;
  }
  if (state.typed) {
    const io::TypedRingBase::Stats t = state.typed->stats();
    c.has_typed = true;
    c.typed_demoted = t.demoted;
    c.typed_pushed = t.pushed;
    c.typed_popped = t.popped;
    c.typed_buffered = t.size;
    c.typed_capacity = t.capacity;
    if (!t.demoted) {
      // While the ring is live it IS the channel's bound: processes park
      // on it, the pipe stays empty.  Fold its occupancy and pressure
      // into the standard fields (in bytes, via the codec's wire size)
      // so the deadlock monitor's capacity-growth arithmetic works on
      // typed channels unchanged.
      const std::size_t vb = state.typed->value_bytes();
      c.capacity = static_cast<std::uint64_t>(t.capacity * vb);
      c.buffered = static_cast<std::uint64_t>(t.size * vb);
      c.blocked_readers += static_cast<std::uint32_t>(t.blocked_readers);
      c.blocked_writers += static_cast<std::uint32_t>(t.blocked_writers);
      c.write_closed = c.write_closed || t.write_closed;
      c.read_closed = c.read_closed || t.read_closed;
    }
  }
  return c;
}

Channel::Channel(std::size_t capacity, std::string label)
    : Channel(ChannelOptions{capacity, std::move(label)}) {}

Channel::Channel(ChannelOptions options) {
  state_ = std::make_shared<ChannelState>();
  state_->pipe = std::make_shared<io::Pipe>(options.capacity);
  state_->capacity = options.capacity;
  state_->label = std::move(options.label);
  // Flight-recorder identity: block/unblock events carry the channel id;
  // the id -> label bind recorded here lets a post-mortem print labels.
  // An unlabelled channel records none (an empty `who` would take the
  // thread's actor) and prints as ch<id>.
  state_->pipe->set_flight_id(state_->id);
  if (!state_->label.empty()) {
    obs::flight_record_named(obs::FlightKind::kChanLabel, state_->label,
                             state_->id);
  }
  state_->remote = options.remote;

  auto in_seq = std::make_shared<io::SequenceInputStream>(
      std::make_shared<io::LocalInputStream>(state_->pipe));
  in_ = std::make_shared<ChannelInputStream>(state_, std::move(in_seq));

  auto out_seq = std::make_shared<io::SequenceOutputStream>(
      std::make_shared<io::LocalOutputStream>(state_->pipe));
  out_ = std::make_shared<ChannelOutputStream>(state_, std::move(out_seq));

  state_->input = in_;
  state_->output = out_;
}

}  // namespace dpn::core
