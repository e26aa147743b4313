#include "dist/remote_streams.hpp"

#include <atomic>
#include <utility>

#include "obs/flight.hpp"
#include "support/log.hpp"

namespace dpn::dist {

namespace {

TrafficStats* stats_of(const std::shared_ptr<NodeContext>& node) {
  return node ? node->traffic().get() : nullptr;
}

}  // namespace

ByteVector RedirectInfo::encode() const {
  ByteVector out(8);
  put_u64(out.data(), token);
  if (trace.valid()) {
    out.resize(8 + obs::TraceContext::kWireSize);
    trace.encode(out.data() + 8);
  }
  return out;
}

RedirectInfo RedirectInfo::decode(ByteSpan message) {
  if (message.size() != 8 &&
      message.size() != 8 + obs::TraceContext::kWireSize) {
    throw IoError{"malformed redirect of " + std::to_string(message.size()) +
                  " bytes"};
  }
  RedirectInfo info;
  info.token = get_u64(message.data());
  if (message.size() > 8) {
    info.trace = obs::TraceContext::decode(message.data() + 8);
  }
  return info;
}

FrameChannelInput::FrameChannelInput(std::shared_ptr<net::Stream> stream,
                                     std::shared_ptr<NodeContext> node,
                                     PeerAddress producer)
    : node_(std::move(node)),
      stats_(stats_of(node_)),
      producer_addr_(std::move(producer)) {
  attach(std::move(stream));
}

FrameChannelInput::FrameChannelInput(std::shared_ptr<StreamPromise> promise,
                                     std::uint64_t token,
                                     std::shared_ptr<NodeContext> node)
    : node_(std::move(node)),
      stats_(stats_of(node_)),
      promise_(std::move(promise)),
      pending_token_(token) {}

FrameChannelInput::~FrameChannelInput() {
  if (stream_) stream_->set_wait_observer(nullptr);
}

void FrameChannelInput::attach(std::shared_ptr<net::Stream> stream) {
  stream->set_wait_observer(this);
  if (node_) node_->register_remote_stream(stream);
  std::scoped_lock lock{stream_mutex_};
  stream_ = std::move(stream);
}

void FrameChannelInput::ensure_connected() {
  if (stream_) return;
  auto stream = promise_->wait(
      stats_ != nullptr ? &stats_->blocked_remote_readers : nullptr);
  producer_addr_ = promise_->dialer();
  promise_.reset();
  attach(std::move(stream));
}

void FrameChannelInput::on_park() {
  if (stats_ == nullptr) return;
  // Not relaxed: whoever sees this park also sees the tally of the bytes
  // read before it.
  stats_->blocked_remote_readers.fetch_add(1);
}

void FrameChannelInput::on_unpark() {
  if (stats_ == nullptr) return;
  stats_->blocked_remote_readers.fetch_sub(1);
}

void FrameChannelInput::producer_lost(const IoError& e) {
  // A producer that finishes ends its stream before its connection goes
  // away, so a stream failing means the producer was *lost*, not done.
  // Locally-closed reads (our own close()/abort) keep the quiet IoError
  // stop; everything else surfaces as WorkerLost, which
  // IterativeProcess::run does NOT swallow -- the application sees the
  // fault instead of a silently truncated history (docs/FAULTS.md).
  if (closed_.load() || (node_ && node_->aborting())) throw;
  obs::flight_record_named(obs::FlightKind::kWorkerLost, producer_addr_.host);
  // One post-mortem per process is plenty: a lost worker can fail many
  // streams at once and each would otherwise write its own dump file.
  static std::atomic<bool> dumped{false};
  if (!dumped.exchange(true)) {
    const std::string dump = obs::flight_dump("worker-lost");
    if (!dump.empty()) {
      log::warn("remote stream: flight dump written to ", dump);
    }
  }
  throw WorkerLost{std::string{"remote producer lost mid-stream: "} +
                   e.what()};
}

std::size_t FrameChannelInput::read_some(MutableByteSpan out) {
  if (out.empty()) return 0;
  if (closed_.load()) throw IoError{"read from closed remote channel"};
  if (eof_.load(std::memory_order_relaxed)) return 0;
  ensure_connected();
  const bool traced = obs::flight_tokens();
  const std::uint64_t span = traced ? obs::current_trace_context().span_id : 0;
  std::size_t n = 0;
  try {
    n = stream_->read_some(out);
  } catch (const IoError& e) {
    producer_lost(e);
  }
  if (n == 0) {
    end_of_segment();
    return 0;
  }
  received_.add(n);
  if (traced) {
    // The stream adopted the producer's context for these bytes: mark
    // the arrival under its span id, which the exporter joins with the
    // producer's kNetSend into a flow arrow across the wire.
    const obs::TraceContext& ctx = obs::current_trace_context();
    if (ctx.valid() && ctx.span_id != span) {
      DPN_FLIGHT_TOKEN(obs::FlightKind::kNetRecv, "data", ctx.span_id, n);
    }
  }
  return n;
}

void FrameChannelInput::end_of_segment() {
  // A read ends at the producer's end of stream, or because this side
  // shut down (close, abort): only the former is an end the fleet counts.
  if (closed_.load() || (node_ && node_->aborting())) {
    eof_ = true;
    return;
  }
  const ByteVector message = stream_->end_message();
  if (!message.empty()) {
    try {
      handle_redirect(RedirectInfo::decode({message.data(), message.size()}));
    } catch (const IoError& e) {
      producer_lost(e);
    }
  }
  if (!eof_.exchange(true) && stats_ != nullptr) {
    stats_->ends_received.fetch_add(1);
  }
}

void FrameChannelInput::handle_redirect(const RedirectInfo& info) {
  // The producer moved to a new server; its reincarnation will dial our
  // node's rendezvous with `info.token`.  Splice the successor segment
  // after ourselves so the consumer keeps reading without interruption.
  auto parent = parent_.lock();
  if (!parent) {
    throw IoError{"redirect received but the channel sequence is gone"};
  }
  if (info.trace.valid()) {
    obs::current_trace_context() = info.trace;
    DPN_FLIGHT_TOKEN(obs::FlightKind::kShipRecv, "redirect",
                     info.trace.span_id, info.token);
  }
  auto promise = node_->rendezvous().expect(info.token);
  auto successor =
      std::make_shared<FrameChannelInput>(promise, info.token, node_);
  successor->set_parent_sequence(parent_);
  successor->set_flight_id(flight_id_);
  node_->register_remote_input(successor);
  parent->append(successor);
  log::debug("channel segment redirected; awaiting token ", info.token);
}

void FrameChannelInput::grant_bonus_credits(std::size_t bytes) {
  std::scoped_lock lock{stream_mutex_};
  if (stream_) stream_->grant_window(bytes);
}

void FrameChannelInput::close() {
  if (closed_.exchange(true)) return;
  if (promise_) {
    node_->rendezvous().forget(pending_token_);
    promise_->cancel();
  }
  std::shared_ptr<net::Stream> stream;
  {
    std::scoped_lock lock{stream_mutex_};
    stream = stream_;
  }
  // Resets the data direction: a reader blocked on it (the abort path
  // closes endpoints from another thread) wakes, and the producer's next
  // write -- or the one parked on the window -- throws ChannelClosed,
  // propagating termination upstream (Section 3.4).
  if (stream) stream->close();
}

FrameChannelOutput::FrameChannelOutput(std::shared_ptr<net::Stream> stream,
                                       PeerAddress peer,
                                       std::shared_ptr<NodeContext> node)
    : node_(std::move(node)), stats_(stats_of(node_)), peer_(std::move(peer)) {
  attach(std::move(stream));
}

FrameChannelOutput::FrameChannelOutput(std::shared_ptr<StreamPromise> promise,
                                       std::shared_ptr<NodeContext> node)
    : node_(std::move(node)),
      stats_(stats_of(node_)),
      promise_(std::move(promise)) {}

FrameChannelOutput::~FrameChannelOutput() {
  if (stream_) stream_->set_wait_observer(nullptr);
}

void FrameChannelOutput::attach(std::shared_ptr<net::Stream> stream) {
  stream->set_wait_observer(this);
  if (node_) node_->register_remote_stream(stream);
  stream_ = std::move(stream);
  live_.store(stream_.get(), std::memory_order_release);
}

void FrameChannelOutput::dial_in(
    const std::shared_ptr<StreamPromise>& promise) {
  std::shared_ptr<net::Stream> stream;
  try {
    stream = promise->wait(
        stats_ != nullptr ? &stats_->blocked_remote_writers : nullptr);
  } catch (...) {
    std::scoped_lock lock{mutex_};
    connecting_ = false;
    attached_.wake_all();
    throw;
  }
  std::scoped_lock lock{mutex_};
  connecting_ = false;
  peer_ = promise->dialer();
  promise_.reset();
  attach(std::move(stream));
  attached_.wake_all();
}

net::Stream& FrameChannelOutput::connect() {
  std::shared_ptr<StreamPromise> promise;
  {
    std::scoped_lock lock{mutex_};
    if (ended_) throw io::WriteStopped{0, "write to closed remote channel"};
    if (stream_) return *stream_;
    connecting_ = true;
    promise = promise_;
  }
  dial_in(promise);
  std::scoped_lock lock{mutex_};
  // A cut that came meanwhile waited for the stream, and ends it.
  if (ended_) throw io::WriteStopped{0, "write to closed remote channel"};
  return *stream_;
}

PeerAddress FrameChannelOutput::peer() const {
  std::scoped_lock lock{mutex_};
  return peer_;
}

void FrameChannelOutput::on_park() {
  if (stats_ == nullptr) return;
  stats_->blocked_remote_writers.fetch_add(1);  // ordered after the tally
}

void FrameChannelOutput::on_unpark() {
  if (stats_ == nullptr) return;
  stats_->blocked_remote_writers.fetch_sub(1);
}

void FrameChannelOutput::write_vectored(ByteSpan a, ByteSpan b) {
  net::Stream* stream = live_.load(std::memory_order_acquire);
  if (stream == nullptr) stream = &connect();
  const std::size_t n = a.size() + b.size();
  // Stamp the bytes with a fresh span in this thread's ambient trace
  // (minting the trace lazily): the stream sends them with that context,
  // and the consumer's kNetRecv of the same span id becomes the flow
  // arrow across the wire.
  obs::TraceContext* ambient = nullptr;
  std::uint64_t span = 0;
  if (obs::flight_tokens()) {
    ambient = &obs::current_trace_context();
    if (!ambient->valid()) {
      ambient->trace_id = obs::new_trace_id();
      ambient->flags = obs::TraceContext::kSampled;
    }
    span = std::exchange(ambient->span_id, obs::next_span_id());
  }
  try {
    stream->write_vectored(a, b);
  } catch (const io::WriteStopped& stop) {
    sent_.add(stop.written);
    if (ambient != nullptr) ambient->span_id = span;
    throw;
  } catch (...) {
    if (ambient != nullptr) ambient->span_id = span;
    throw;
  }
  if (ambient != nullptr) {
    DPN_FLIGHT_TOKEN(obs::FlightKind::kNetSend, "data", ambient->span_id, n);
    ambient->span_id = span;
  }
  sent_.add(n);
}

bool FrameChannelOutput::end(ByteSpan end_message) {
  std::shared_ptr<StreamPromise> promise;
  {
    std::unique_lock lock{mutex_};
    if (std::exchange(ended_, true)) return false;
    // The writer's dial-in brings the stream the end must travel on.
    while (connecting_) attached_.wait(lock);
    if (!stream_) promise = promise_;
  }
  if (promise) dial_in(promise);
  stream_->finish_with(end_message);
  if (stats_ != nullptr) stats_->ends_sent.fetch_add(1);
  stream_->shutdown_read();
  return true;
}

void FrameChannelOutput::close() {
  try {
    // Deliver the end even if the consumer has not dialed in yet: the
    // stream contract promises the consumer an explicit end-of-stream.
    end({});
  } catch (const IoError&) {
    // Consumer already gone; nothing to tell it.
  }
}

void FrameChannelOutput::redirect_and_finish(std::uint64_t successor_token) {
  RedirectInfo info;
  info.token = successor_token;
  if (obs::flight_tokens()) {
    // The redirect handshake is part of a SHIP lifecycle: stamp it so
    // the consumer's acceptance (kShipRecv) links back to this span.
    info.trace.trace_id = obs::current_trace_context().valid()
                              ? obs::current_trace_context().trace_id
                              : obs::new_trace_id();
    info.trace.span_id = obs::next_span_id();
    info.trace.flags = obs::TraceContext::kSampled;
    DPN_FLIGHT_TOKEN(obs::FlightKind::kShipSend, "redirect",
                     info.trace.span_id, successor_token);
  }
  const ByteVector message = info.encode();
  if (!end({message.data(), message.size()})) {
    throw IoError{"redirect on closed remote channel"};
  }
}

}  // namespace dpn::dist
