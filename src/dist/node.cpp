#include "dist/node.hpp"

#include <algorithm>
#include <random>

#include "dist/remote_streams.hpp"

#include "io/data.hpp"
#include "io/memory.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"

namespace dpn::dist {

namespace {

constexpr std::uint32_t kHelloMagic = 0x44504e43;  // "DPNC"

/// HELLO: magic, token, dialer rendezvous host + port.
void write_hello(net::Stream& stream, std::uint64_t token,
                 const PeerAddress& self) {
  io::MemoryOutputStream sink;
  io::DataOutputStream data{sink};
  data.write_u32(kHelloMagic);
  data.write_u64(token);
  data.write_string(self.host);
  data.write_u16(self.port);
  const ByteVector& bytes = sink.data();
  stream.write_all({bytes.data(), bytes.size()});
}

/// Adapts a freshly accepted stream for DataInputStream; the dialer
/// writes its opening message immediately, so blocking reads are fine.
class StreamReader final : public io::InputStream {
 public:
  explicit StreamReader(net::Stream& s) : stream_(s) {}
  std::size_t read_some(MutableByteSpan out) override {
    const std::size_t n = stream_.read_some(out);
    bytes_read_ += n;
    return n;
  }
  void close() override {}

  std::size_t bytes_read() const { return bytes_read_; }

 private:
  net::Stream& stream_;
  std::size_t bytes_read_ = 0;
};

/// The accepted stream carries something other than a HELLO.
class BadHello final : public NetError {
 public:
  using NetError::NetError;
};

struct Hello {
  std::uint64_t token = 0;
  PeerAddress dialer;
};

Hello read_hello(StreamReader& reader) {
  io::DataInputStream data{reader};
  const std::uint32_t magic = data.read_u32();
  Hello hello;
  if (magic != kHelloMagic) {
    throw BadHello{"rendezvous: bad HELLO magic"};
  }
  hello.token = data.read_u64();
  try {
    hello.dialer.host = data.read_string();
  } catch (const SerializationError& e) {
    throw BadHello{e.what()};
  }
  hello.dialer.port = data.read_u16();
  return hello;
}

}  // namespace

void StreamPromise::fail(std::string reason) {
  std::scoped_lock lock{mutex_};
  if (cancelled_ || fulfilled_) return;
  cancelled_ = true;
  failure_ = std::move(reason);
  waiters_.wake_all();
}

bool StreamPromise::fulfill(std::shared_ptr<net::Stream> stream,
                            PeerAddress dialer) {
  std::scoped_lock lock{mutex_};
  if (cancelled_ || fulfilled_) return false;
  stream_ = std::move(stream);
  dialer_ = std::move(dialer);
  fulfilled_ = true;
  waiters_.wake_all();
  return true;
}

std::shared_ptr<net::Stream> StreamPromise::wait(
    std::atomic<std::int64_t>* blocked) {
  std::unique_lock lock{mutex_};
  if (!fulfilled_ && !cancelled_) {
    if (blocked != nullptr) blocked->fetch_add(1);
    while (!fulfilled_ && !cancelled_) {
      waiters_.wait(lock, sched::WaitTag::rendezvous(token_));
    }
    if (blocked != nullptr) blocked->fetch_sub(1);
  }
  if (!cancelled_) return std::move(stream_);
  if (!failure_.empty()) throw WorkerLost{failure_};
  throw NetError{"pending channel connection cancelled"};
}

void StreamPromise::cancel() {
  std::shared_ptr<net::Stream> unclaimed;
  {
    std::scoped_lock lock{mutex_};
    cancelled_ = true;
    unclaimed = std::move(stream_);
    waiters_.wake_all();
  }
  // A stream that arrived for an endpoint that closed before claiming it:
  // closing it fails its peer's writes and ends its reads, instead of
  // leaving the peer parked on it.
  if (unclaimed) unclaimed->close();
}

bool StreamPromise::fulfilled() const {
  std::scoped_lock lock{mutex_};
  return fulfilled_;
}

RendezvousService::RendezvousService()
    : listener_(net::listen(0)) {
  acceptor_ = std::jthread{[this] { accept_loop(); }};
}

RendezvousService::~RendezvousService() {
  shutting_down_.store(true);
  listener_->close();  // wakes the acceptor
  if (acceptor_.joinable()) acceptor_.join();
  std::scoped_lock lock{mutex_};
  for (auto& [token, promise] : pending_) promise->cancel();
  pending_.clear();
}

std::shared_ptr<StreamPromise> RendezvousService::expect(std::uint64_t token) {
  auto promise = std::make_shared<StreamPromise>(token);
  std::scoped_lock lock{mutex_};
  if (const auto parked = parked_.find(token); parked != parked_.end()) {
    promise->fulfill(std::move(parked->second.stream),
                     std::move(parked->second.dialer));
    parked_.erase(parked);
    return promise;
  }
  const auto [it, inserted] = pending_.emplace(token, promise);
  (void)it;
  if (!inserted) {
    throw UsageError{"rendezvous token registered twice"};
  }
  return promise;
}

void RendezvousService::forget(std::uint64_t token) {
  std::shared_ptr<StreamPromise> promise;
  {
    std::scoped_lock lock{mutex_};
    parked_.erase(token);
    const auto it = pending_.find(token);
    if (it == pending_.end()) return;
    promise = it->second;
    pending_.erase(it);
  }
  promise->cancel();
}

std::shared_ptr<net::Stream> RendezvousService::dial(const std::string& host,
                                                     std::uint16_t port,
                                                     std::uint64_t token,
                                                     const PeerAddress& self,
                                                     std::size_t stream_window) {
  // Dial-backs race the peer's listener coming up (ship_process sends the
  // shipment before every cut channel has reconnected), so a refused or
  // slow connect here retries with backoff instead of failing the whole
  // re-establishment.
  auto stream = net::dial_with_retry(host, port, {}, stream_window);
  write_hello(*stream, token, self);
  return stream;
}

void RendezvousService::fail_pending(const std::string& reason) {
  std::unordered_map<std::uint64_t, std::shared_ptr<StreamPromise>> pending;
  {
    std::scoped_lock lock{mutex_};
    pending.swap(pending_);
  }
  for (auto& [token, promise] : pending) promise->fail(reason);
}

void RendezvousService::accept_loop() {
  for (;;) {
    std::shared_ptr<net::Stream> stream;
    try {
      stream = listener_->accept();
    } catch (const NetError&) {
      if (shutting_down_.load()) return;
      continue;
    }
    StreamReader reader{*stream};
    Hello hello;
    try {
      hello = read_hello(reader);
    } catch (const BadHello& e) {
      log::warn("rendezvous: handshake failed: ", e.what());
      continue;
    } catch (const IoError& e) {
      // A stream that ends before its first byte is no dial-back (a
      // probe, or a dial abandoned before it spoke).  One whose transport
      // fails, or ends inside the HELLO, was a dial-back for one of the
      // pending tokens, and nothing says which: fail them all, so their
      // endpoints see WorkerLost instead of waiting forever.
      if (shutting_down_.load() ||
          (reader.bytes_read() == 0 &&
           dynamic_cast<const EndOfStream*>(&e) != nullptr)) {
        continue;
      }
      log::warn("rendezvous: dial-back lost before its HELLO: ", e.what());
      fail_pending(std::string{"dial-back lost before its HELLO: "} +
                   e.what());
      continue;
    }
    try {
      // The HELLO's bytes leave the channel's window whole.
      stream->return_window();
      std::shared_ptr<StreamPromise> promise;
      {
        std::scoped_lock lock{mutex_};
        const auto it = pending_.find(hello.token);
        if (it != pending_.end()) {
          promise = it->second;
          pending_.erase(it);
        }
      }
      if (!promise) {
        // No one expects this token yet; a redirected producer can dial
        // before the consumer's lazy reader reaches the redirect.
        // Park the connection for the expect() that is on its way.
        std::scoped_lock lock{mutex_};
        parked_.emplace(hello.token,
                        Parked{std::move(stream), hello.dialer});
        continue;
      }
      promise->fulfill(std::move(stream), hello.dialer);
    } catch (const std::exception& e) {
      log::warn("rendezvous: handshake failed: ", e.what());
    }
  }
}

namespace {
std::uint64_t random_seed() {
  std::random_device rd;
  return (std::uint64_t{rd()} << 32) ^ rd();
}
}  // namespace

TrafficStats::Tally::Tally(TrafficStats* stats, Direction direction)
    : stats_(stats), direction_(direction) {
  if (stats_ == nullptr) return;
  std::scoped_lock lock{stats_->mutex_};
  next_ = stats_->live_;
  if (next_ != nullptr) next_->prev_ = this;
  stats_->live_ = this;
}

TrafficStats::Tally::~Tally() {
  if (stats_ == nullptr) return;
  std::scoped_lock lock{stats_->mutex_};
  const std::uint64_t bytes = bytes_.load(std::memory_order_relaxed);
  (direction_ == Direction::kSent ? stats_->retired_.sent
                                  : stats_->retired_.received) += bytes;
  if (prev_ != nullptr) {
    prev_->next_ = next_;
  } else {
    stats_->live_ = next_;
  }
  if (next_ != nullptr) next_->prev_ = prev_;
}

TrafficStats::Bytes TrafficStats::bytes() const {
  std::scoped_lock lock{mutex_};
  Bytes total = retired_;
  for (const Tally* tally = live_; tally != nullptr; tally = tally->next_) {
    (tally->direction_ == Tally::Direction::kSent ? total.sent
                                                  : total.received) +=
        tally->bytes_.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t TrafficStats::Total::load() const {
  const Bytes total = stats_.bytes();
  return direction_ == Tally::Direction::kSent ? total.sent : total.received;
}

NodeContext::NodeContext(std::string advertised_host)
    : host_(std::move(advertised_host)), token_state_(random_seed()) {}

std::shared_ptr<NodeContext> NodeContext::create(std::string advertised_host) {
  // Installs the channel-endpoint serialization hooks on first use.
  extern void ensure_hooks_installed();
  ensure_hooks_installed();
  return std::shared_ptr<NodeContext>(
      new NodeContext{std::move(advertised_host)});
}

std::shared_ptr<NodeContext> NodeContext::default_node() {
  static std::shared_ptr<NodeContext>* node =
      new std::shared_ptr<NodeContext>(create());
  return *node;
}

void NodeContext::register_remote_stream(
    const std::shared_ptr<net::Stream>& stream) {
  std::scoped_lock lock{streams_mutex_};
  std::erase_if(remote_streams_,
                [](const std::weak_ptr<net::Stream>& weak) {
                  return weak.expired();
                });
  remote_streams_.push_back(stream);
}

void NodeContext::abort_remote_channels() {
  aborting_.store(true, std::memory_order_release);
  std::scoped_lock lock{streams_mutex_};
  for (const auto& weak : remote_streams_) {
    if (auto stream = weak.lock()) {
      // shutdown (not close) so a concurrently blocked recv/send wakes
      // without racing on descriptor reuse.
      stream->shutdown_read();
      stream->shutdown_write();
    }
  }
}

void NodeContext::register_remote_input(
    const std::shared_ptr<FrameChannelInput>& input) {
  std::scoped_lock lock{streams_mutex_};
  std::erase_if(remote_inputs_,
                [](const std::weak_ptr<FrameChannelInput>& weak) {
                  return weak.expired();
                });
  remote_inputs_.push_back(input);
}

void NodeContext::grant_remote_credits() {
  std::vector<std::shared_ptr<FrameChannelInput>> inputs;
  {
    std::scoped_lock lock{streams_mutex_};
    for (const auto& weak : remote_inputs_) {
      if (auto input = weak.lock()) inputs.push_back(std::move(input));
    }
  }
  const std::size_t bonus = remote_window();
  for (const auto& input : inputs) input->grant_bonus_credits(bonus);
}

std::uint64_t NodeContext::next_token() {
  std::scoped_lock lock{token_mutex_};
  SplitMix64 mix{token_state_};
  const std::uint64_t token = mix.next();
  token_state_ = token ^ 0x5bd1e995;
  return token;
}

}  // namespace dpn::dist
