#include "dist/ship.hpp"

#include <mutex>

#include "dist/remote_streams.hpp"
#include "io/memory.hpp"
#include "obs/flight.hpp"
#include "support/log.hpp"

namespace dpn::dist {
namespace {

std::shared_ptr<SendContext> send_context(serial::ObjectOutputStream& out) {
  if (const auto* ctx =
          std::any_cast<std::shared_ptr<SendContext>>(&out.attachment())) {
    return *ctx;
  }
  throw UsageError{
      "channel endpoints can only be serialized through "
      "dpn::dist::ship_process / ship_object"};
}

std::shared_ptr<ReceiveContext> receive_context(
    serial::ObjectInputStream& in) {
  if (const auto* ctx =
          std::any_cast<std::shared_ptr<ReceiveContext>>(&in.attachment())) {
    return *ctx;
  }
  // Deserialization outside a compute server (tests, tools): attach a
  // context bound to the process-wide default node.
  auto ctx = std::make_shared<ReceiveContext>();
  ctx->node = NodeContext::default_node();
  in.set_attachment(ctx);
  return ctx;
}

/// Replaces the moving consumer endpoint of a cut channel (Section 4.2).
/// Resolves on the destination into a live ChannelInputStream whose
/// sequence is [unconsumed bytes][socket segment].
class RemoteInputStub final : public serial::Serializable {
 public:
  bool live = false;
  ByteVector buffered;
  std::string host;
  std::uint32_t port = 0;
  std::uint64_t token = 0;
  std::string label;
  std::uint64_t capacity = io::Pipe::kDefaultCapacity;
  // Consumer-side traffic counters travel with the endpoint so a shipped
  // channel's metrics survive migration.
  std::uint64_t bytes_read = 0;
  std::uint64_t tokens_read = 0;
  // The segment's window: the channel's credit_window, else the window
  // of the producer's node.
  std::uint64_t credit_window = 0;

  std::string type_name() const override { return "dpn.RemoteInputStub"; }

  void write_fields(serial::ObjectOutputStream& out) const override {
    out.write_bool(live);
    out.write_bytes({buffered.data(), buffered.size()});
    out.write_string(host);
    out.write_u32(port);
    out.write_u64(token);
    out.write_string(label);
    out.write_u64(capacity);
    out.write_u64(bytes_read);
    out.write_u64(tokens_read);
    out.write_u64(credit_window);
  }

  static std::shared_ptr<RemoteInputStub> read_object(
      serial::ObjectInputStream& in) {
    auto stub = std::make_shared<RemoteInputStub>();
    stub->live = in.read_bool();
    stub->buffered = in.read_bytes();
    stub->host = in.read_string();
    stub->port = in.read_u32();
    stub->token = in.read_u64();
    stub->label = in.read_string();
    stub->capacity = in.read_u64();
    stub->bytes_read = in.read_u64();
    stub->tokens_read = in.read_u64();
    stub->credit_window = in.read_u64();
    return stub;
  }

  std::shared_ptr<serial::Serializable> read_resolve(
      serial::ObjectInputStream& in) override {
    auto ctx = receive_context(in);
    auto state = std::make_shared<core::ChannelState>();
    state->pipe = nullptr;  // the producer is on another server
    state->capacity = static_cast<std::size_t>(capacity);
    state->label = label;
    // The reconstructed consumer's id names the channel in this host's
    // flight events (its receive parks are tagged with it below).
    if (!label.empty()) {
      obs::flight_record_named(obs::FlightKind::kChanLabel, label, state->id);
    }
    state->output_remote = true;
    state->remote.credit_window = static_cast<std::size_t>(credit_window);
    state->metrics->bytes_read.store(bytes_read, std::memory_order_relaxed);
    state->metrics->tokens_read.store(tokens_read, std::memory_order_relaxed);

    auto sequence = std::make_shared<io::SequenceInputStream>();
    if (!buffered.empty()) {
      sequence->append(
          std::make_shared<io::MemoryInputStream>(std::move(buffered)));
    }
    if (live) {
      // Dial back to the node that kept the producer (the paper's
      // "establishes a network connection back to the waiting
      // RemoteOutputStream").  The stream's window is the channel's
      // bound: the producer stalls once it is that far ahead.
      auto stream = RendezvousService::dial(
          host, static_cast<std::uint16_t>(port), token,
          ctx->node->address(), static_cast<std::size_t>(credit_window));
      auto segment = std::make_shared<FrameChannelInput>(
          std::move(stream), ctx->node,
          PeerAddress{host, static_cast<std::uint16_t>(port)});
      segment->set_parent_sequence(sequence);
      segment->set_flight_id(state->id);
      ctx->node->register_remote_input(segment);
      sequence->append(std::move(segment));
    }
    auto endpoint = std::make_shared<core::ChannelInputStream>(
        state, std::move(sequence));
    state->input = endpoint;
    return endpoint;
  }
};

/// Replaces the moving producer endpoint of a cut channel.
class RemoteOutputStub final : public serial::Serializable {
 public:
  bool dead = false;  // consumer terminated before the shipment
  std::string host;
  std::uint32_t port = 0;
  std::uint64_t token = 0;
  std::string label;
  std::uint64_t capacity = io::Pipe::kDefaultCapacity;
  // Producer-side traffic counters; see RemoteInputStub.
  std::uint64_t bytes_written = 0;
  std::uint64_t tokens_written = 0;
  // The channel's credit_window (0: the window of the node the producer
  // lands on).
  std::uint64_t credit_window = 0;

  std::string type_name() const override { return "dpn.RemoteOutputStub"; }

  void write_fields(serial::ObjectOutputStream& out) const override {
    out.write_bool(dead);
    out.write_string(host);
    out.write_u32(port);
    out.write_u64(token);
    out.write_string(label);
    out.write_u64(capacity);
    out.write_u64(bytes_written);
    out.write_u64(tokens_written);
    out.write_u64(credit_window);
  }

  static std::shared_ptr<RemoteOutputStub> read_object(
      serial::ObjectInputStream& in) {
    auto stub = std::make_shared<RemoteOutputStub>();
    stub->dead = in.read_bool();
    stub->host = in.read_string();
    stub->port = in.read_u32();
    stub->token = in.read_u64();
    stub->label = in.read_string();
    stub->capacity = in.read_u64();
    stub->bytes_written = in.read_u64();
    stub->tokens_written = in.read_u64();
    stub->credit_window = in.read_u64();
    return stub;
  }

  std::shared_ptr<serial::Serializable> read_resolve(
      serial::ObjectInputStream& in) override {
    auto ctx = receive_context(in);
    auto state = std::make_shared<core::ChannelState>();
    state->pipe = nullptr;
    state->capacity = static_cast<std::size_t>(capacity);
    state->label = label;
    state->input_remote = true;
    state->remote.credit_window = static_cast<std::size_t>(credit_window);
    state->metrics->bytes_written.store(bytes_written,
                                        std::memory_order_relaxed);
    state->metrics->tokens_written.store(tokens_written,
                                         std::memory_order_relaxed);

    std::shared_ptr<io::OutputStream> sink;
    if (dead) {
      sink = std::make_shared<DeadOutputStream>();
    } else {
      const std::size_t window = credit_window != 0
                                     ? static_cast<std::size_t>(credit_window)
                                     : ctx->node->remote_window();
      auto stream = RendezvousService::dial(
          host, static_cast<std::uint16_t>(port), token,
          ctx->node->address(), window);
      sink = std::make_shared<FrameChannelOutput>(
          std::move(stream),
          PeerAddress{host, static_cast<std::uint16_t>(port)}, ctx->node);
    }
    auto sequence =
        std::make_shared<io::SequenceOutputStream>(std::move(sink));
    auto endpoint = std::make_shared<core::ChannelOutputStream>(
        state, std::move(sequence));
    state->output = endpoint;
    return endpoint;
  }
};

/// One endpoint of a channel wholly inside the shipment.  The first stub
/// of a pair carries the channel's metadata and unconsumed bytes; the
/// destination rebuilds one local pipe per shipment-local pipe id.
class LocalPairStub final : public serial::Serializable {
 public:
  std::uint64_t pipe_id = 0;
  std::uint8_t role = 0;  // 0 = input endpoint, 1 = output endpoint
  bool has_meta = false;
  std::uint64_t capacity = io::Pipe::kDefaultCapacity;
  std::string label;
  ByteVector buffered;
  bool write_closed = false;
  bool read_closed = false;
  std::uint64_t credit_window = 0;
  // Full traffic counters: the whole channel moves, so both directions'
  // metrics travel with the metadata stub.
  std::uint64_t bytes_written = 0;
  std::uint64_t tokens_written = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t tokens_read = 0;

  std::string type_name() const override { return "dpn.LocalPairStub"; }

  void write_fields(serial::ObjectOutputStream& out) const override {
    out.write_u64(pipe_id);
    out.write_u8(role);
    out.write_bool(has_meta);
    if (has_meta) {
      out.write_u64(capacity);
      out.write_string(label);
      out.write_bytes({buffered.data(), buffered.size()});
      out.write_bool(write_closed);
      out.write_bool(read_closed);
      out.write_u64(credit_window);
      out.write_u64(bytes_written);
      out.write_u64(tokens_written);
      out.write_u64(bytes_read);
      out.write_u64(tokens_read);
    }
  }

  static std::shared_ptr<LocalPairStub> read_object(
      serial::ObjectInputStream& in) {
    auto stub = std::make_shared<LocalPairStub>();
    stub->pipe_id = in.read_u64();
    stub->role = in.read_u8();
    stub->has_meta = in.read_bool();
    if (stub->has_meta) {
      stub->capacity = in.read_u64();
      stub->label = in.read_string();
      stub->buffered = in.read_bytes();
      stub->write_closed = in.read_bool();
      stub->read_closed = in.read_bool();
      stub->credit_window = in.read_u64();
      stub->bytes_written = in.read_u64();
      stub->tokens_written = in.read_u64();
      stub->bytes_read = in.read_u64();
      stub->tokens_read = in.read_u64();
    }
    return stub;
  }

  std::shared_ptr<serial::Serializable> read_resolve(
      serial::ObjectInputStream& in) override {
    auto ctx = receive_context(in);
    auto& channel = ctx->channels[pipe_id];
    if (has_meta) {
      if (channel) {
        throw SerializationError{"duplicate channel metadata in shipment"};
      }
      const std::size_t cap = std::max<std::size_t>(
          static_cast<std::size_t>(capacity), buffered.size());
      channel = std::make_shared<core::Channel>(core::ChannelOptions{
          cap, label, {static_cast<std::size_t>(credit_window)}});
      if (!buffered.empty()) {
        channel->pipe()->write({buffered.data(), buffered.size()});
      }
      if (write_closed) channel->pipe()->close_write();
      if (read_closed) channel->pipe()->close_read();
      auto& metrics = *channel->state()->metrics;
      metrics.bytes_written.store(bytes_written, std::memory_order_relaxed);
      metrics.tokens_written.store(tokens_written, std::memory_order_relaxed);
      metrics.bytes_read.store(bytes_read, std::memory_order_relaxed);
      metrics.tokens_read.store(tokens_read, std::memory_order_relaxed);
    } else if (!channel) {
      throw SerializationError{
          "channel endpoint stub arrived before its metadata"};
    }
    if (role == 0) return channel->input();
    return channel->output();
  }
};

std::shared_ptr<serial::Serializable> make_pair_stub(
    SendContext& ctx, const std::shared_ptr<core::ChannelState>& state,
    std::uint8_t role) {
  std::uint64_t id = 0;
  if (const auto it = ctx.pipe_ids.find(state.get());
      it != ctx.pipe_ids.end()) {
    id = it->second;
  } else {
    id = ctx.next_pipe_id++;
    ctx.pipe_ids.emplace(state.get(), id);
  }
  auto stub = std::make_shared<LocalPairStub>();
  stub->pipe_id = id;
  stub->role = role;
  if (ctx.meta_emitted.insert(id).second) {
    stub->has_meta = true;
    stub->capacity = state->capacity;
    stub->label = state->label;
    stub->credit_window = state->remote.credit_window;
    stub->bytes_written =
        state->metrics->bytes_written.load(std::memory_order_relaxed);
    stub->tokens_written =
        state->metrics->tokens_written.load(std::memory_order_relaxed);
    stub->bytes_read =
        state->metrics->bytes_read.load(std::memory_order_relaxed);
    stub->tokens_read =
        state->metrics->tokens_read.load(std::memory_order_relaxed);
    // Both endpoints travel in this shipment and neither is running: the
    // pipe contents, then the typed ring's backlog, are the unconsumed
    // history.
    const ByteVector typed_tail = demote_typed(state);
    stub->buffered = state->pipe->steal_buffer();
    stub->buffered.insert(stub->buffered.end(), typed_tail.begin(),
                          typed_tail.end());
    stub->write_closed = state->pipe->write_closed();
    stub->read_closed = state->pipe->read_closed();
  }
  if (role == 0) {
    state->input_remote = true;
  } else {
    state->output_remote = true;
  }
  return stub;
}

std::shared_ptr<serial::Serializable> replace_input_endpoint(
    const std::shared_ptr<core::ChannelInputStream>& endpoint,
    serial::ObjectOutputStream& out) {
  auto ctx = send_context(out);
  const auto& state = endpoint->state();
  if (ctx->internal.count(state.get()) != 0) {
    return make_pair_stub(*ctx, state, 0);
  }
  if (state->input_remote) {
    throw SerializationError{
        "channel input endpoint was already shipped away"};
  }
  if (state->output_remote || !state->pipe) {
    throw SerializationError{
        "re-shipping a receiving endpoint whose producer is already remote "
        "is not supported (paper Section 6.1, future work)"};
  }

  auto stub = std::make_shared<RemoteInputStub>();
  stub->label = state->label;
  stub->capacity = state->capacity;
  stub->credit_window = state->remote.credit_window != 0
                            ? state->remote.credit_window
                            : ctx->node->remote_window();
  stub->bytes_read =
      state->metrics->bytes_read.load(std::memory_order_relaxed);
  stub->tokens_read =
      state->metrics->tokens_read.load(std::memory_order_relaxed);
  obs::flight_record_named(obs::FlightKind::kShip, state->label, state->id,
                           stub->bytes_read);
  NodeContext& node = *ctx->node;

  auto producer = state->output.lock();
  if (state->pipe->write_closed() || !producer) {
    // The producer already closed (or vanished): ship the remaining bytes
    // only; the endpoint ends cleanly after draining them.
    stub->live = false;
    const ByteVector typed_tail = demote_typed(state);
    stub->buffered = state->pipe->steal_buffer();
    stub->buffered.insert(stub->buffered.end(), typed_tail.begin(),
                          typed_tail.end());
  } else {
    // Live cut: the staying producer is switched onto a pending socket;
    // whatever is still in the pipe travels with the stub.  Order is
    // preserved: pipe bytes first (Memory segment), socket bytes last.
    // The switch stops the pipe's writer without waiting: a write in
    // flight, parked on a full pipe or not, resumes on the socket.
    const std::uint64_t token = node.next_token();
    auto promise = node.rendezvous().expect(token);
    auto stream_out = std::make_shared<FrameChannelOutput>(promise, ctx->node);
    // Typed channel: flush the ring's backlog into the pipe before the
    // switch, so it travels with the stub ahead of any socket bytes; the
    // producer's next push sees kDemoted and encodes through the (now
    // switched) sequence.
    demote_typed(state);
    producer->sequence().switch_to(std::move(stream_out),
                                   /*close_old=*/false);
    stub->buffered = state->pipe->steal_buffer();
    stub->live = true;
    stub->host = node.host();
    stub->port = node.rendezvous().port();
    stub->token = token;
  }
  state->input_remote = true;
  return stub;
}

std::shared_ptr<serial::Serializable> replace_output_endpoint(
    const std::shared_ptr<core::ChannelOutputStream>& endpoint,
    serial::ObjectOutputStream& out) {
  auto ctx = send_context(out);
  const auto& state = endpoint->state();
  if (ctx->internal.count(state.get()) != 0) {
    return make_pair_stub(*ctx, state, 1);
  }
  if (state->output_remote) {
    throw SerializationError{
        "channel output endpoint was already shipped away"};
  }
  NodeContext& node = *ctx->node;
  auto current = endpoint->sequence().current();

  if (std::dynamic_pointer_cast<io::LocalOutputStream>(current)) {
    // The consumer stays on this node: register a rendezvous token, hang a
    // pending socket segment after the consumer's pipe, and let the pipe
    // drain (Section 4.2, "a similar sequence of events takes place when
    // a LocalOutputStream is serialized").
    auto stub = std::make_shared<RemoteOutputStub>();
    stub->label = state->label;
    stub->capacity = state->capacity;
    stub->credit_window = state->remote.credit_window;
    stub->bytes_written =
        state->metrics->bytes_written.load(std::memory_order_relaxed);
    stub->tokens_written =
        state->metrics->tokens_written.load(std::memory_order_relaxed);
    obs::flight_record_named(obs::FlightKind::kShip, state->label, state->id,
                             stub->bytes_written);
    // Typed channel with the producer leaving: flush the ring backlog into
    // the pipe so the staying consumer drains [ring backlog][socket bytes]
    // in order.  A producer that already closed keeps its ring live
    // instead -- the consumer pops the backlog straight to kEof, and the
    // shipped endpoint is closed anyway.
    if (!state->pipe->write_closed()) demote_typed(state);
    auto consumer = state->input.lock();
    if (!consumer || state->pipe->read_closed()) {
      stub->dead = true;  // reader already terminated
    } else {
      const std::uint64_t token = node.next_token();
      auto promise = node.rendezvous().expect(token);
      auto segment =
          std::make_shared<FrameChannelInput>(promise, token, ctx->node);
      segment->set_parent_sequence(consumer->sequence_ptr());
      segment->set_flight_id(state->id);
      ctx->node->register_remote_input(segment);
      consumer->sequence().append(std::move(segment));
      state->pipe->close_write();
      stub->host = node.host();
      stub->port = node.rendezvous().port();
      stub->token = token;
    }
    state->output_remote = true;
    return stub;
  }

  if (auto remote =
          std::dynamic_pointer_cast<FrameChannelOutput>(current)) {
    // Already the producer side of a remote segment: redirect (Section
    // 4.3).  Tell the consumer in-band to expect a successor connection,
    // and send the reincarnated producer straight to the consumer's node.
    // The redirect is the segment's own cut: a write in flight fails with
    // WriteStopped, and the sequence has no successor for it.
    const std::uint64_t successor_token = node.next_token();
    remote->redirect_and_finish(successor_token);
    const PeerAddress peer = remote->peer();

    auto stub = std::make_shared<RemoteOutputStub>();
    stub->label = state->label;
    stub->capacity = state->capacity;
    stub->credit_window = state->remote.credit_window;
    stub->bytes_written =
        state->metrics->bytes_written.load(std::memory_order_relaxed);
    stub->tokens_written =
        state->metrics->tokens_written.load(std::memory_order_relaxed);
    stub->host = peer.host;
    stub->port = peer.port;
    stub->token = successor_token;
    state->output_remote = true;
    obs::flight_record_named(obs::FlightKind::kRedirect, state->label,
                             state->id, successor_token);
    return stub;
  }

  if (std::dynamic_pointer_cast<DeadOutputStream>(current)) {
    auto stub = std::make_shared<RemoteOutputStub>();
    stub->dead = true;
    stub->label = state->label;
    stub->capacity = state->capacity;
    state->output_remote = true;
    return stub;
  }

  throw SerializationError{
      "channel output endpoint has an unsupported transport underneath"};
}

[[maybe_unused]] const bool kStubsRegistered =
    serial::register_type<RemoteInputStub>("dpn.RemoteInputStub") &&
    serial::register_type<RemoteOutputStub>("dpn.RemoteOutputStub") &&
    serial::register_type<LocalPairStub>("dpn.LocalPairStub");

}  // namespace

ByteVector demote_typed(const std::shared_ptr<core::ChannelState>& state) {
  if (!state->typed || state->typed->demoted()) return {};
  if (state->pipe->read_closed()) {
    // Reader gone: the backlog would be discarded on arrival anyway.
    io::MemoryOutputStream discard;
    state->typed->demote_into(discard);
    return {};
  }
  if (state->pipe->write_closed()) {
    io::MemoryOutputStream sink;
    state->typed->demote_into(sink);
    return sink.take();
  }
  state->pipe->set_unbounded();
  io::LocalOutputStream sink{state->pipe};
  state->typed->demote_into(sink);
  return {};
}

void ensure_hooks_installed() {
  static std::once_flag flag;
  std::call_once(flag, [] {
    core::DistributionHooks hooks;
    hooks.replace_input = replace_input_endpoint;
    hooks.replace_output = replace_output_endpoint;
    core::set_distribution_hooks(std::move(hooks));
  });
}

namespace {

ByteVector ship_any(const std::shared_ptr<NodeContext>& node,
                    const std::shared_ptr<serial::Serializable>& object,
                    const std::shared_ptr<core::Process>& for_cut) {
  ensure_hooks_installed();
  auto ctx = std::make_shared<SendContext>();
  ctx->node = node;
  if (for_cut) {
    // Channels with both endpoints inside the shipment stay local pipes on
    // the destination; only cut channels become sockets.
    std::set<const core::ChannelState*> inputs;
    for (const auto& ep : for_cut->channel_inputs()) {
      inputs.insert(ep->state().get());
    }
    for (const auto& ep : for_cut->channel_outputs()) {
      const core::ChannelState* state = ep->state().get();
      if (inputs.count(state) != 0 && state->pipe) {
        ctx->internal.insert(state);
      }
    }
  }
  auto sink = std::make_shared<io::MemoryOutputStream>();
  serial::ObjectOutputStream out{sink};
  out.set_attachment(ctx);
  out.write_object(object);
  return sink->take();
}

}  // namespace

ByteVector ship_process(const std::shared_ptr<NodeContext>& node,
                        const std::shared_ptr<core::Process>& process) {
  return ship_any(node, process, process);
}

std::shared_ptr<core::Process> receive_process(
    const std::shared_ptr<NodeContext>& node, ByteSpan bytes) {
  auto object = receive_object(node, bytes);
  auto process = std::dynamic_pointer_cast<core::Process>(object);
  if (!process) {
    throw SerializationError{"shipment did not contain a Process"};
  }
  return process;
}

ByteVector ship_object(const std::shared_ptr<NodeContext>& node,
                       const std::shared_ptr<serial::Serializable>& object) {
  return ship_any(node, object,
                  std::dynamic_pointer_cast<core::Process>(object));
}

std::shared_ptr<serial::Serializable> receive_object(
    const std::shared_ptr<NodeContext>& node, ByteSpan bytes) {
  ensure_hooks_installed();
  auto ctx = std::make_shared<ReceiveContext>();
  ctx->node = node;
  auto source = std::make_shared<io::MemoryInputStream>(
      ByteVector{bytes.begin(), bytes.end()});
  serial::ObjectInputStream in{source};
  in.set_attachment(ctx);
  return in.read_object();
}

}  // namespace dpn::dist
