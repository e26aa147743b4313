#include "dist/remote_streams.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <utility>

#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "support/log.hpp"

namespace dpn::dist {

namespace {

TrafficStats* stats_of(const std::shared_ptr<NodeContext>& node) {
  return node ? node->traffic().get() : nullptr;
}

/// The consumer's credit batch: `batch` (0 = 4 KiB), at most half the
/// channel's window (0 = the node's default window), at least one byte.
std::uint32_t credit_batch_for(std::size_t batch, std::size_t window,
                               const std::shared_ptr<NodeContext>& node) {
  if (batch == 0) batch = 4096;
  if (window == 0) {
    window = node ? node->remote_window() : std::size_t{1} << 18;
  }
  return static_cast<std::uint32_t>(
      std::max<std::size_t>(1, std::min(batch, window / 2)));
}

}  // namespace

FrameChannelInput::FrameChannelInput(std::shared_ptr<net::Stream> stream,
                                     std::shared_ptr<NodeContext> node,
                                     std::size_t credit_batch,
                                     std::size_t credit_window,
                                     PeerAddress producer,
                                     std::uint64_t close_token)
    : node_(std::move(node)), stats_(stats_of(node_)),
      producer_addr_(std::move(producer)), close_token_(close_token),
      credit_batch_(credit_batch_for(credit_batch, credit_window, node_)) {
  attach(std::move(stream));
}

FrameChannelInput::FrameChannelInput(std::shared_ptr<StreamPromise> promise,
                                     std::uint64_t token,
                                     std::shared_ptr<NodeContext> node,
                                     std::size_t credit_batch,
                                     std::size_t credit_window)
    : node_(std::move(node)),
      stats_(stats_of(node_)),
      promise_(std::move(promise)),
      pending_token_(token),
      credit_batch_(credit_batch_for(credit_batch, credit_window, node_)) {}

FrameChannelInput::~FrameChannelInput() {
  if (stream_) stream_->set_wait_observer(nullptr);
}

void FrameChannelInput::attach(std::shared_ptr<net::Stream> stream) {
  stream->set_wait_observer(this);
  if (node_) node_->register_remote_stream(stream);
  // Under credit_mutex_: a bonus grant from the deadlock agent's thread
  // reads stream_ there.
  std::scoped_lock lock{credit_mutex_};
  stream_ = std::move(stream);
}

void FrameChannelInput::ensure_connected() {
  if (stream_) return;
  auto stream = promise_->wait(
      stats_ != nullptr ? &stats_->blocked_remote_readers : nullptr);
  // The producer's HELLO told us its rendezvous; its credit waiter is
  // registered under the token it dialed with -- exactly what an early
  // close() needs to deliver the out-of-band CLOSE.
  producer_addr_ = promise_->dialer();
  close_token_ = pending_token_;
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
  // A producer that finishes sends FIN before its transport goes away, so
  // a stream dying mid-frame means the producer was *lost*, not done.
  // Locally-closed reads (our own close()/abort woke us via shutdown)
  // keep the quiet IoError stop; everything else surfaces as WorkerLost,
  // which IterativeProcess::run does NOT swallow -- the application sees
  // the fault instead of a silently truncated history (docs/FAULTS.md).
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
  for (;;) {
    if (eof_) return 0;
    if (parser_.control_ready()) {
      handle_control_frame();
      continue;
    }
    ensure_connected();
    // Withheld credits must travel before this consumer blocks: the
    // producer may need them to make the very progress we wait for
    // (windows as small as one byte are legal).  So with credit owed,
    // first look without waiting, and grant before a waiting read.
    const bool owe = pending_credit_ > 0;
    std::size_t n = 0;
    bool ended = false;
    try {
      stream_->read_in_place(
          [&](ByteSpan in) -> std::size_t {
            if (in.empty()) {
              ended = true;
              return 0;
            }
            return parser_.feed(in, out, n);
          },
          /*wait=*/!owe);
      if (ended) {
        // The transport ended: cleanly between frames it stands for a
        // FIN; inside a frame the producer was cut off.
        if (!parser_.between_frames()) {
          throw EndOfStream{"transport ended mid-frame"};
        }
        eof_ = true;
        return 0;
      }
    } catch (const IoError& e) {
      producer_lost(e);
    }
    if (n > 0) {
      received_.add(n);
      // Consumption frees window.  Small grants coalesce instead of
      // costing a credit frame each; they travel once they amount to a
      // useful batch, or just before this consumer blocks.
      pending_credit_ += static_cast<std::uint32_t>(n);
      if (pending_credit_ >= credit_batch_) {
        send_credit(std::exchange(pending_credit_, 0));
      }
      return n;
    }
    if (owe && !parser_.control_ready()) {
      send_credit(std::exchange(pending_credit_, 0));
    }
  }
}

void FrameChannelInput::handle_control_frame() {
  const net::Frame frame = parser_.take_control();
  switch (frame.type) {
    case net::FrameType::kFin:
      if (!eof_.exchange(true) && stats_ != nullptr) {
        stats_->ends_received.fetch_add(1);
      }
      return;
    case net::FrameType::kRedirect:
      handle_redirect(net::RedirectInfo::decode(
          {frame.payload.data(), frame.payload.size()}));
      return;
    case net::FrameType::kRst:
      throw ChannelClosed{"remote reader reset the channel"};
    case net::FrameType::kCredit:
      // Credits belong to the reverse direction; one arriving here is a
      // protocol violation.
      throw IoError{"credit frame on the data direction"};
    case net::FrameType::kData:
    case net::FrameType::kDataTraced:
      break;
  }
  throw IoError{"unknown frame type on the data direction"};
}

void FrameChannelInput::handle_redirect(const net::RedirectInfo& info) {
  // The producer moved to a new server; it (or rather its reincarnation)
  // will dial our node's rendezvous with `info.token`.  Splice the
  // successor segment after ourselves so the consumer keeps reading
  // without interruption once this segment's FIN arrives.
  auto parent = parent_.lock();
  if (!parent) {
    throw IoError{"REDIRECT received but the channel sequence is gone"};
  }
  if (info.trace.valid()) {
    obs::current_trace_context() = info.trace;
    DPN_TRACE_EVENT(obs::TraceKind::kShipRecv, "redirect",
                    info.trace.span_id, info.token);
  }
  auto promise = node_->rendezvous().expect(info.token);
  auto successor = std::make_shared<FrameChannelInput>(promise, info.token,
                                                       node_, credit_batch_);
  successor->set_parent_sequence(parent_);
  successor->set_flight_id(flight_id_);
  if (node_) node_->register_remote_input(successor);
  parent->append(successor);
  log::debug("channel segment redirected; awaiting token ", info.token);
}

void FrameChannelInput::send_credit(std::uint32_t bytes) {
  if (bytes == 0) return;
  std::scoped_lock lock{credit_mutex_};
  if (credit_channel_dead_ || !stream_) return;
  try {
    if (!credit_writer_) {
      credit_writer_.emplace(std::make_shared<net::StreamOutput>(stream_));
    }
    credit_writer_->write_credit(bytes);
  } catch (const IoError&) {
    // Producer already gone; it no longer needs credits.
    credit_channel_dead_ = true;
  }
}

void FrameChannelInput::grant_bonus_credits(std::uint32_t bytes) {
  send_credit(bytes);
}

void FrameChannelInput::close() {
  if (closed_.exchange(true)) return;
  if (promise_) {
    node_->rendezvous().forget(pending_token_);
    promise_->cancel();
  }
  if (stream_) {
    // Shutdown, not close: shutdown() wakes a reader currently blocked on
    // this stream (a bare close() would leave it blocked forever -- the
    // abort path closes endpoints from another thread), and it still
    // makes the producer's next write fail with ChannelClosed,
    // propagating termination upstream (Section 3.4).  The underlying
    // connection/stream is released when the last reference drops.
    stream_->shutdown_read();
    stream_->shutdown_write();
    // Closing before the producer's FIN means it may still be running --
    // possibly parked in its credit wait, where the shutdowns above are
    // not guaranteed to reach it: on the blocking backend both TCP
    // directions of this connection can already be wedged (the seed-era
    // teardown gridlock: writer in FIN-WAIT-1 behind ~116 KB we never
    // read), and abandon_read is deliberately a no-op there.  Deliver the
    // news out-of-band instead: a fresh connection to the producer's
    // rendezvous carrying a CLOSE for our token.
    if (!eof_.load() && close_token_ != 0 && producer_addr_.valid() &&
        (!node_ || !node_->aborting())) {
      notify_producer_closed();
    }
  }
}

void FrameChannelInput::notify_producer_closed() noexcept {
  try {
    auto stream = RendezvousService::send_close(
        producer_addr_.host, producer_addr_.port, close_token_);
    // Park the notification stream: dropping it immediately could reset
    // the message away (mux) before the acceptor reads it.
    if (node_) node_->park_stream(std::move(stream));
    log::debug("dist CLOSE sent for token ", close_token_, " to ",
               producer_addr_.host, ":", producer_addr_.port);
  } catch (...) {
    // Producer node already gone; there is nobody left to wake.
    log::debug("dist CLOSE for token ", close_token_, " undeliverable");
  }
}

FrameChannelOutput::FrameChannelOutput(std::shared_ptr<net::Stream> stream,
                                       PeerAddress peer,
                                       std::shared_ptr<NodeContext> node,
                                       std::size_t window_override)
    : node_(std::move(node)), stats_(stats_of(node_)),
      peer_(std::move(peer)) {
  window_ = static_cast<std::int64_t>(
      window_override != 0 ? window_override
      : node_               ? node_->remote_window()
                            : (std::size_t{1} << 18));
  attach(std::move(stream));
}

FrameChannelOutput::FrameChannelOutput(std::shared_ptr<StreamPromise> promise,
                                       std::uint64_t token,
                                       std::shared_ptr<NodeContext> node,
                                       std::size_t window_override)
    : node_(std::move(node)),
      stats_(stats_of(node_)),
      promise_(std::move(promise)),
      pending_token_(token) {
  window_ = static_cast<std::int64_t>(
      window_override != 0 ? window_override
      : node_               ? node_->remote_window()
                            : (std::size_t{1} << 18));
}

FrameChannelOutput::~FrameChannelOutput() {
  if (stream_) stream_->set_wait_observer(nullptr);
}

void FrameChannelOutput::attach(std::shared_ptr<net::Stream> stream) {
  stream_ = std::move(stream);
  stream_->set_wait_observer(this);
  if (node_) node_->register_remote_stream(stream_);
  close_signal_->set_stream(stream_);
  writer_.emplace(std::make_shared<net::StreamOutput>(stream_));
}

void FrameChannelOutput::ensure_connected() {
  if (writer_) return;
  auto stream = promise_->wait(
      stats_ != nullptr ? &stats_->blocked_remote_writers : nullptr);
  peer_ = promise_->dialer();
  promise_.reset();
  attach(std::move(stream));
}

void FrameChannelOutput::on_park() {
  if (stats_ == nullptr) return;
  stats_->blocked_remote_writers.fetch_add(1);  // ordered after the tally
}

void FrameChannelOutput::on_unpark() {
  if (stats_ == nullptr) return;
  stats_->blocked_remote_writers.fetch_sub(1);
}

void FrameChannelOutput::write(ByteSpan data) {
  if (closed_) throw IoError{"write to closed remote channel"};
  ensure_connected();
  // Bounded remote channel: send at most window_ bytes, then block for
  // consumer credits -- the cross-machine equivalent of a full pipe.
  std::size_t offset = 0;
  while (offset < data.size()) {
    if (close_signal_->fired()) {
      // Out-of-band CLOSE already told us the consumer is gone; don't
      // push more bytes at a receive queue nobody will drain.
      throw ChannelClosed{"remote reader closed the channel"};
    }
    while (window_ <= 0) await_credit();
    const std::size_t chunk = std::min<std::size_t>(
        static_cast<std::size_t>(window_), data.size() - offset);
    if (obs::trace_enabled()) {
      // Stamp the frame with a fresh span in this thread's ambient
      // trace (minting the trace lazily): the consumer's kNetRecv of
      // the same span id becomes the flow arrow across the wire.
      obs::TraceContext& ambient = obs::current_trace_context();
      if (!ambient.valid()) {
        ambient.trace_id = obs::new_trace_id();
        ambient.flags = obs::TraceContext::kSampled;
      }
      obs::TraceContext ctx = ambient;
      ctx.span_id = obs::next_span_id();
      writer_->write_data_traced(ctx, data.subspan(offset, chunk));
      DPN_TRACE_EVENT(obs::TraceKind::kNetSend, "data", ctx.span_id, chunk);
    } else {
      writer_->write_data(data.subspan(offset, chunk));
    }
    window_ -= static_cast<std::int64_t>(chunk);
    offset += chunk;
    sent_.add(chunk);
    // A producer whose window outpaces the data volume (large
    // credit_window, short run) can otherwise go the whole stream
    // without ever stalling -- and the stall path above is the only
    // place credits are read.  The consumer's per-token grants then
    // pile up unread until they overflow this end's receive buffer,
    // and on the blocking backend the whole TCP connection collapses
    // into mutual retransmission backoff: our own tail (and FIN!)
    // never delivers, the consumer waits forever (the seed-era
    // teardown gridlock).  Poll the backlog off periodically so the
    // standing credit queue stays bounded regardless of window size.
    since_drain_ += static_cast<std::int64_t>(chunk);
    if (since_drain_ >= kDrainEveryBytes) {
      since_drain_ = 0;
      drain_credits(/*block=*/false);
    }
  }
}

void FrameChannelOutput::drain_credits(bool block) {
  if (!credit_reader_) {
    credit_reader_.emplace(std::make_shared<net::StreamInput>(stream_));
  }
  // Block for the grant we need (when the window is exhausted), then
  // DRAIN every credit frame already buffered.  Reading one frame per
  // stall lets unread grants accumulate in the transport (the consumer
  // emits roughly one small credit frame per data frame, so their wire
  // volume rivals the data's): once they fill the receive buffer / mux
  // window of this reverse direction, the consumer's next grant blocks,
  // it stops reading our data, and the connection gridlocks in both
  // directions.  Draining to empty keeps the standing queue near zero,
  // so the credit direction always has room.
  for (;;) {
    if (!block &&
        !stream_->wait_readable(std::chrono::milliseconds{0})) {
      return;
    }
    const net::Frame frame = [&] {
      try {
        return credit_reader_->read_frame();
      } catch (const IoError&) {
        // close_signal_ wakes this read by shutting down our receive
        // side; an end-of-stream that lands mid-frame surfaces as
        // IoError rather than the synthetic FIN.  Either way the meaning
        // is the consumer's: it is gone.
        if (close_signal_->fired()) {
          throw ChannelClosed{
              "remote reader closed while writer awaited credit"};
        }
        throw;
      }
    }();
    switch (frame.type) {
      case net::FrameType::kCredit:
        if (frame.payload.size() != 4) {
          throw IoError{"malformed credit frame"};
        }
        window_ += get_u32(frame.payload.data());
        block = false;
        break;
      case net::FrameType::kFin:
        // The consumer is gone (orderly close or synthetic on shutdown):
        // the writer's turn to terminate.
        throw ChannelClosed{
            "remote reader closed while writer awaited credit"};
      default:
        throw IoError{"unexpected frame on the credit channel"};
    }
  }
}

void FrameChannelOutput::close() {
  if (closed_) return;
  closed_ = true;
  try {
    // Deliver FIN even if the consumer has not dialed in yet: the stream
    // contract promises the consumer an explicit end-of-stream.
    ensure_connected();
    // Clear any credit backlog first: unread grants sitting in our
    // receive buffer are exactly what keeps the FIN below from reaching
    // the consumer (see the drain in write()).
    drain_credits(/*block=*/false);
    writer_->write_fin();
    if (stats_ != nullptr) stats_->ends_sent.fetch_add(1);
    stream_->shutdown_write();
    // We will never read again either: our only inbound traffic is credit
    // frames, and the FIN above promises the consumer no more data, so any
    // credit it sends from here on is void.  Saying so matters on the mux
    // backend: a consumer mid-grant can be parked on this stream's credit
    // window (its grants count against the mux window of the reverse
    // direction, which only our await_credit reads ever replenish).  The
    // per-stream RST that abandon_read emits there fails that write with
    // ChannelClosed -- which FrameChannelInput::send_credit treats as
    // "producer done" -- instead of leaving the consumer wedged until
    // node teardown.  On the blocking backend abandon_read is a no-op
    // (NOT a SHUT_RD: a shut-down TCP receive side answers late credit
    // bytes with a connection-wide RST that would destroy our own
    // undelivered tail and FIN); there the await_credit
    // drain-to-empty keeps the credit backlog from wedging anyone.
    stream_->abandon_read();
    park_stream();
  } catch (const IoError&) {
    // Consumer already gone; nothing to tell it.
  }
}

void PeerCloseSignal::set_stream(std::shared_ptr<net::Stream> stream) {
  std::scoped_lock lock{mutex_};
  stream_ = std::move(stream);
}

void PeerCloseSignal::fire() {
  fired_.store(true, std::memory_order_release);
  std::shared_ptr<net::Stream> stream;
  {
    std::scoped_lock lock{mutex_};
    stream = stream_;
  }
  if (stream) stream->shutdown_read();
}

void FrameChannelOutput::park_stream() {
  // Dropping the stream with unread data (late credit frames) inbound can
  // turn into a connection reset that destroys our own in-flight channel
  // data at the consumer (on the blocking backend a close with unread TCP
  // data sends RST; on the mux backend dropping the handle RSTs the
  // logical stream).  Instead, park the half-closed stream with the node:
  // it stays open (harmless) until the node itself is torn down, long
  // after the consumer has drained our FIN.
  if (node_ && stream_) node_->park_stream(stream_);
}

void FrameChannelOutput::redirect_and_finish(std::uint64_t successor_token) {
  if (closed_) throw IoError{"redirect on closed remote channel"};
  ensure_connected();
  net::RedirectInfo info;
  info.token = successor_token;
  if (obs::trace_enabled()) {
    // The redirect handshake is part of a SHIP lifecycle: stamp it so
    // the consumer's acceptance (kShipRecv) links back to this span.
    info.trace.trace_id = obs::current_trace_context().valid()
                              ? obs::current_trace_context().trace_id
                              : obs::new_trace_id();
    info.trace.span_id = obs::next_span_id();
    info.trace.flags = obs::TraceContext::kSampled;
    DPN_TRACE_EVENT(obs::TraceKind::kShipSend, "redirect",
                    info.trace.span_id, successor_token);
  }
  writer_->write_redirect(info);
  writer_->write_fin();
  if (stats_ != nullptr) stats_->ends_sent.fetch_add(1);
  stream_->shutdown_write();
  // Same as close(): this segment never reads credits again; where the
  // transport can say so safely (mux), unpark a consumer mid-grant.
  stream_->abandon_read();
  park_stream();
  closed_ = true;
}

}  // namespace dpn::dist
