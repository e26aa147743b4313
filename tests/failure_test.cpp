#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <future>
#include <thread>

#include "core/network.hpp"
#include "dist/node.hpp"
#include "dist/remote_streams.hpp"
#include "dist/ship.hpp"
#include "fault/fault.hpp"
#include "io/data.hpp"
#include "io/memory.hpp"
#include "image/codec.hpp"
#include "net/transport.hpp"
#include "obs/flight.hpp"
#include "obs/snapshot.hpp"
#include "par/generic.hpp"
#include "par/schema.hpp"
#include "processes/basic.hpp"
#include "processes/copy.hpp"
#include "rmi/compute_server.hpp"
#include "rmi/registry.hpp"
#include "serial/serial.hpp"
#include "support/rng.hpp"

#include "mux_peer.hpp"

/// Failure injection: sockets killed mid-stream, corrupt and truncated
/// wire data, dead infrastructure, double closes, hostile inputs.  The
/// invariant under test everywhere: failures surface as IoError-family
/// exceptions (which the runtime converts into clean process stops and
/// cascading termination) -- never as crashes, hangs, or silent
/// corruption.
namespace dpn {
namespace {

using core::Channel;
using processes::Collect;
using processes::CollectSink;
using processes::Identity;
using processes::Sequence;

// --- Socket-level failures -------------------------------------------------------

TEST(Failure, SocketKilledMidStreamStopsConsumerCleanly) {
  // A producer's node dies (socket hard-closed without FIN); the consumer
  // sees end-of-stream after the delivered prefix, not a crash.
  auto node_a = dist::NodeContext::create();
  auto node_b = dist::NodeContext::create();

  auto ch = std::make_shared<Channel>(256);
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto source = std::make_shared<Sequence>(0, ch->output());  // unbounded
  auto drain = std::make_shared<Collect>(ch->input(), sink);

  const ByteVector shipment = dist::ship_process(node_a, source);
  auto remote = std::dynamic_pointer_cast<core::IterativeProcess>(
      dist::receive_process(node_b, {shipment.data(), shipment.size()}));
  ASSERT_TRUE(remote);

  std::jthread host_b{[&] { remote->run(); }};
  std::jthread drainer{[&] { drain->run(); }};
  while (sink->size() < 20) std::this_thread::yield();

  // Kill the producer the hard way: park it, then drop every reference
  // (its socket closes with the object graph; no FIN frame is sent).
  remote->request_pause();
  ASSERT_TRUE(remote->await_pause());
  remote->abandon();
  host_b.join();
  remote.reset();

  drainer.join();  // EOF after the prefix; Collect stops gracefully
  EXPECT_GE(sink->size(), 20u);
  const auto values = sink->values();
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(values[i], static_cast<std::int64_t>(i));  // prefix intact
  }
}

TEST(Failure, ConsumerNodeVanishesKillsProducer) {
  // The inverse: the consumer is dropped; the producer's next write gets
  // ChannelClosed and the graph terminates instead of spinning.
  auto node_a = dist::NodeContext::create();
  auto node_b = dist::NodeContext::create();

  auto ch = std::make_shared<Channel>(256);
  auto drain = std::make_shared<processes::Print>(ch->input());
  const ByteVector shipment = dist::ship_process(node_a, drain);
  auto remote = dist::receive_process(node_b, {shipment.data(),
                                               shipment.size()});

  // Do not run the remote consumer at all; just destroy it.
  remote.reset();

  auto source = std::make_shared<Sequence>(0, ch->output());  // unbounded
  source->run();  // must terminate via ChannelClosed, not hang
  SUCCEED();
}

// --- Corrupt wire data ---------------------------------------------------------

TEST(Failure, SerializerNeverCrashesOnTruncation) {
  // Property: every prefix of a valid object stream either decodes to the
  // object (full length) or throws IoError -- never UB, never success.
  auto point_bytes = [] {
    auto sink = std::make_shared<io::MemoryOutputStream>();
    serial::ObjectOutputStream out{sink};
    out.write_object(std::make_shared<par::StopSignal>());
    return sink->take();
  }();
  for (std::size_t cut = 0; cut < point_bytes.size(); ++cut) {
    ByteVector prefix{point_bytes.begin(),
                      point_bytes.begin() + static_cast<std::ptrdiff_t>(cut)};
    EXPECT_THROW(serial::from_bytes({prefix.data(), prefix.size()}), IoError)
        << "cut at " << cut;
  }
  EXPECT_NO_THROW(
      serial::from_bytes({point_bytes.data(), point_bytes.size()}));
}

TEST(Failure, SerializerSurvivesBitFlips) {
  auto bytes = [] {
    auto sink = std::make_shared<io::MemoryOutputStream>();
    serial::ObjectOutputStream out{sink};
    out.write_object(std::make_shared<par::StopSignal>());
    return sink->take();
  }();
  // Flip every bit position once; decoding must either throw IoError or
  // produce some object -- and never crash.
  for (std::size_t i = 0; i < bytes.size() * 8; ++i) {
    ByteVector mutated = bytes;
    mutated[i / 8] ^= static_cast<std::uint8_t>(1u << (i % 8));
    try {
      auto object = serial::from_bytes({mutated.data(), mutated.size()});
      (void)object;
    } catch (const IoError&) {
    } catch (const std::logic_error&) {
      // UsageError for pathological lengths is acceptable too.
    }
  }
  SUCCEED();
}

// --- Hostile bytes at the mux frame parser -----------------------------------

/// How a mux stream fed hostile bytes ended.
struct FedStream {
  std::size_t bytes = 0;  // delivered before the end
  bool failed = false;    // NetError: the connection died before a FIN
  ByteVector end;         // the FIN's end message, if one arrived
};

/// Dials a stream with `window` to a raw peer, which sends what
/// `make_wire(stream_id)` returns and closes the connection; reads the
/// stream to its end.  A read still going after 10 s is a hang.
template <class MakeWire>
FedStream feed_mux(std::uint32_t window, MakeWire make_wire) {
  net::test::RawPeer peer{window};
  auto stream = peer.dial();
  const ByteVector wire = make_wire(peer.next_open());
  peer.send_raw({wire.data(), wire.size()});
  peer.close();
  auto reading = std::async(std::launch::async, [stream] {
    FedStream fed;
    std::uint8_t buffer[512];
    try {
      for (;;) {
        const std::size_t n = stream->read_some({buffer, sizeof buffer});
        if (n == 0) break;
        fed.bytes += n;
      }
      fed.end = stream->end_message();
    } catch (const NetError&) {
      fed.failed = true;
    }
    return fed;
  });
  if (reading.wait_for(std::chrono::seconds{10}) !=
      std::future_status::ready) {
    ADD_FAILURE() << "mux stream read hung on hostile bytes";
    stream->close();
  }
  return reading.get();
}

TEST(Failure, FrameReaderRejectsGarbage) {
  Xoshiro256 rng{404};
  for (int round = 0; round < 100; ++round) {
    const FedStream fed = feed_mux(1024, [&](std::uint32_t) {
      ByteVector junk(1 + rng.below(64));
      for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
      return junk;
    });
    EXPECT_LE(fed.bytes, 1024u) << "round " << round;
    EXPECT_LE(fed.end.size(), net::Stream::kMaxEndMessage);
  }
}

// Seeded mutations of a well-formed segment (DATA, DATA_TRACED, CREDIT,
// and a FIN carrying a redirect): truncated, bit-flipped, with a length
// field raised up to 2^32 - 1, or with junk appended.  Each ends in data
// within the window followed by a clean end or NetError -- never a crash,
// a hang, or a buffer past the window -- and the end message decodes or
// throws IoError.
TEST(Failure, MuxFramesSurviveMutation) {
  constexpr std::uint32_t kWindow = 256;
  Xoshiro256 rng{2207};
  int clean_ends = 0;
  int failures = 0;
  for (int round = 0; round < 150; ++round) {
    const FedStream fed = feed_mux(kWindow, [&](std::uint32_t id) {
      const ByteVector data(1 + rng.below(100), 0x11);
      const ByteVector traced(obs::TraceContext::kWireSize + 1 + rng.below(50),
                              0x22);
      std::uint8_t credit[4];
      put_u32(credit, static_cast<std::uint32_t>(rng.next()));
      dist::RedirectInfo redirect;
      redirect.token = rng.next();
      if (rng.below(2) == 0) {
        redirect.trace.trace_id = 1;
        redirect.trace.span_id = 2;
      }
      const ByteVector end = redirect.encode();
      ByteVector wire;
      for (const ByteVector& frame :
           {net::test::encode_frame(id, net::test::kData,
                                    {data.data(), data.size()}),
            net::test::encode_frame(id, net::test::kDataTraced,
                                    {traced.data(), traced.size()}),
            net::test::encode_frame(id, net::test::kCredit, {credit, 4}),
            net::test::encode_frame(id, net::test::kFin,
                                    {end.data(), end.size()})}) {
        wire.insert(wire.end(), frame.begin(), frame.end());
      }
      switch (rng.below(4)) {
        case 0:  // truncated
          wire.resize(rng.below(wire.size()));
          break;
        case 1:  // bit flips
          for (std::uint64_t f = 1 + rng.below(8); f > 0; --f) {
            wire[rng.below(wire.size())] ^=
                static_cast<std::uint8_t>(1u << rng.below(8));
          }
          break;
        case 2: {  // a frame's length raised
          const std::size_t header = rng.below(4) == 0 ? 0 : 9 + data.size();
          put_u32(wire.data() + header + 5,
                  static_cast<std::uint32_t>(rng.next() | 0x100));
          break;
        }
        default:  // junk after the FIN
          for (std::uint64_t n = 1 + rng.below(32); n > 0; --n) {
            wire.push_back(static_cast<std::uint8_t>(rng.next()));
          }
          break;
      }
      return wire;
    });
    EXPECT_LE(fed.bytes, kWindow) << "round " << round;
    ASSERT_LE(fed.end.size(), net::Stream::kMaxEndMessage);
    if (!fed.end.empty()) {
      try {
        (void)dist::RedirectInfo::decode({fed.end.data(), fed.end.size()});
      } catch (const IoError&) {
      }
    }
    (fed.failed ? failures : clean_ends) += 1;
  }
  // The mutations reach both ends: some leave the FIN intact, most not.
  EXPECT_GT(clean_ends, 0);
  EXPECT_GT(failures, 0);
}

// The redirect message alone, mutated in memory: it decodes or throws
// IoError, whatever its length.
TEST(Failure, RedirectMessageSurvivesMutation) {
  Xoshiro256 rng{77};
  for (int round = 0; round < 2000; ++round) {
    dist::RedirectInfo info;
    info.token = rng.next();
    if (rng.below(2) == 0) {
      info.trace.trace_id = rng.next() | 1;
      info.trace.span_id = rng.next();
    }
    ByteVector message = info.encode();
    switch (rng.below(3)) {
      case 0:
        message.resize(rng.below(message.size() + 1));
        break;
      case 1:
        message[rng.below(message.size())] ^=
            static_cast<std::uint8_t>(1u << rng.below(8));
        break;
      default:
        message.resize(message.size() + 1 + rng.below(64),
                       static_cast<std::uint8_t>(rng.next()));
        break;
    }
    try {
      const dist::RedirectInfo got =
          dist::RedirectInfo::decode({message.data(), message.size()});
      EXPECT_TRUE(message.size() == 8 ||
                  message.size() == 8 + obs::TraceContext::kWireSize);
      (void)got;
    } catch (const IoError&) {
    }
  }
}

/// Appends `value` as a varint (the Data-stream count encoding).
void put_varint(ByteVector& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

obs::NetworkSnapshot mutation_sample(Xoshiro256& rng) {
  obs::NetworkSnapshot snap;
  snap.live = rng.next();
  snap.flight_recorded = rng.below(1000);
  snap.task_rtt.counts[rng.below(HistogramSnapshot::kBuckets)] = 3;
  for (std::uint64_t i = rng.below(3); i > 0; --i) {
    snap.processes.push_back({"proc" + std::to_string(i),
                              obs::ProcessState::kRunning, rng.next()});
  }
  for (std::uint64_t i = rng.below(3); i > 0; --i) {
    obs::ChannelSnapshot c;
    c.id = i;
    c.label = std::string(rng.below(20), 'c');
    c.bytes_written = rng.next();
    c.has_typed = rng.below(2) == 0;
    c.write_block.counts[2] = rng.below(100);
    snap.channels.push_back(std::move(c));
  }
  return snap;
}

TEST(Failure, SnapshotRejectsAHugeCountBeforeAllocating) {
  // A default snapshot ends in its process and channel counts (both 0).
  // Raised to 2^40, the process count is rejected as larger than the
  // bytes left, before anything is reserved for it.
  ByteVector wire = obs::NetworkSnapshot{}.encode();
  ASSERT_EQ(wire.back(), 0);
  wire.resize(wire.size() - 2);
  put_varint(wire, std::uint64_t{1} << 40);
  wire.push_back(0);
  EXPECT_THROW((void)obs::NetworkSnapshot::decode({wire.data(), wire.size()}),
               SerializationError);
}

TEST(Failure, HugeBlobClaimAllocatesOnlyWhatArrives) {
  // A blob's length is the sender's claim.  Claimed at the 2^31 sanity
  // limit and followed by 1 KiB and end of stream, the read fails with
  // IoError having touched memory for what arrived, not for the claim.
  ByteVector wire;
  put_varint(wire, std::uint64_t{1} << 31);
  wire.resize(wire.size() + 1024, 0x5a);
  rusage before{};
  getrusage(RUSAGE_SELF, &before);
  io::MemoryInputStream source{std::move(wire)};
  io::DataInputStream in{source};
  EXPECT_THROW((void)in.read_bytes(), IoError);
  rusage after{};
  getrusage(RUSAGE_SELF, &after);
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 64 * 1024)  // KiB
      << "peak RSS rose by " << (after.ru_maxrss - before.ru_maxrss)
      << " KiB";
}

TEST(Failure, SnapshotAndFlightExportSurviveMutation) {
  // Seeded mutations of both observability payloads that cross the wire
  // (STATS and FLIGHT_DUMP): a clean decode or a SerializationError,
  // never a crash, another exception, or an allocation the bytes do not
  // pay for.
  Xoshiro256 rng{2303};
  int rejected = 0;
  for (int round = 0; round < 2000; ++round) {
    const obs::NetworkSnapshot sample = mutation_sample(rng);
    ByteVector wire = sample.encode();
    // The counts' offsets: the same snapshot without processes or
    // channels ends in them.
    obs::NetworkSnapshot header = sample;
    header.processes.clear();
    header.channels.clear();
    const std::size_t counts_at = header.encode().size() - 2;
    switch (rng.below(4)) {
      case 0:  // truncated
        wire.resize(rng.below(wire.size()));
        break;
      case 1:  // bit flips
        for (std::uint64_t f = 1 + rng.below(8); f > 0; --f) {
          wire[rng.below(wire.size())] ^=
              static_cast<std::uint8_t>(1u << rng.below(8));
        }
        break;
      default: {  // the process count or a length after it raised
        const std::size_t at =
            counts_at + rng.below(std::min<std::size_t>(
                            wire.size() - counts_at, 3));
        ByteVector raised{wire.begin(),
                          wire.begin() + static_cast<std::ptrdiff_t>(at)};
        put_varint(raised, rng.next() >> rng.below(64));
        raised.insert(raised.end(),
                      wire.begin() + static_cast<std::ptrdiff_t>(at) + 1,
                      wire.end());
        wire = std::move(raised);
        break;
      }
    }
    try {
      const obs::NetworkSnapshot got =
          obs::NetworkSnapshot::decode({wire.data(), wire.size()});
      EXPECT_LE(got.processes.size() + got.channels.size(), wire.size());
      (void)got.to_string();
    } catch (const SerializationError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);

  for (int round = 0; round < 2000; ++round) {
    obs::FlightExport exported;
    exported.node = static_cast<std::uint32_t>(rng.below(4));
    exported.recorded = rng.next();
    for (std::uint64_t i = rng.below(6); i > 0; --i) {
      obs::FlightEvent event;
      event.ts_ns = rng.next();
      event.a = rng.next();
      event.kind = static_cast<std::uint8_t>(rng.below(40));
      std::snprintf(event.who, sizeof event.who, "w%llu",
                    static_cast<unsigned long long>(i));
      exported.events.push_back(event);
    }
    ByteVector wire = exported.encode();
    switch (rng.below(3)) {
      case 0:
        wire.resize(rng.below(wire.size() + 1));
        break;
      case 1:
        for (std::uint64_t f = 1 + rng.below(16); f > 0; --f) {
          wire[rng.below(wire.size())] ^=
              static_cast<std::uint8_t>(1u << rng.below(8));
        }
        break;
      default:  // the event count raised
        put_u32(wire.data() + 36, static_cast<std::uint32_t>(rng.next()));
        break;
    }
    try {
      const obs::FlightExport got =
          obs::FlightExport::decode({wire.data(), wire.size()});
      EXPECT_LE(got.events.size() * 48, wire.size());
      (void)obs::flight_report(got.events, "mutated");
      (void)obs::flight_chrome_json(got);
    } catch (const SerializationError&) {
    }
  }
}

TEST(Failure, ComputeServerSurvivesGarbageConnection) {
  rmi::ComputeServer server{"garbage-target"};
  {
    net::Socket socket = net::Socket::connect("127.0.0.1", server.port());
    const ByteVector junk{0xff, 0x00, 0x41, 0x42, 0x43};
    socket.write_all({junk.data(), junk.size()});
  }  // closed abruptly
  {
    // An empty connection (connect + immediate close).
    net::Socket socket = net::Socket::connect("127.0.0.1", server.port());
  }
  // The server still works afterwards.
  rmi::ServerHandle handle{rmi::Endpoint{"127.0.0.1", server.port()},
                           nullptr};
  EXPECT_NO_THROW(handle.ping());
  server.stop();
}

TEST(Failure, RendezvousSurvivesGarbageConnection) {
  auto node = dist::NodeContext::create();
  {
    net::Socket socket =
        net::Socket::connect("127.0.0.1", node->rendezvous().port());
    const ByteVector junk{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
    socket.write_all({junk.data(), junk.size()});
  }
  // A legitimate rendezvous still completes afterwards.
  auto promise = node->rendezvous().expect(55);
  std::jthread dialer{[&] {
    dist::RendezvousService::dial("127.0.0.1", node->rendezvous().port(), 55,
                                  node->address());
  }};
  EXPECT_NO_THROW(promise->wait());
}

// --- Dead infrastructure ----------------------------------------------------------

/// A loopback port bound but never listened on: every connect to it is
/// refused, and no other socket can bind it while this one holds it (the
/// socket is bound without SO_REUSEADDR).
class RefusingPort {
 public:
  RefusingPort() : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) throw NetError{"socket() failed"};
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), len) != 0 ||
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      ::close(fd_);
      throw NetError{"bind() failed"};
    }
    port_ = ntohs(addr.sin_port);
  }
  ~RefusingPort() { ::close(fd_); }
  RefusingPort(const RefusingPort&) = delete;
  RefusingPort& operator=(const RefusingPort&) = delete;

  std::uint16_t port() const { return port_; }

 private:
  int fd_;
  std::uint16_t port_ = 0;
};

TEST(Failure, RegistryGoneThrowsCleanly) {
  const RefusingPort dead;
  const std::uint16_t dead_port = dead.port();
  rmi::RegistryClient client{"127.0.0.1", dead_port};
  EXPECT_THROW(client.lookup("anything"), NetError);
  EXPECT_THROW(
      rmi::ServerHandle::lookup("127.0.0.1", dead_port, "x", nullptr),
      NetError);
}

TEST(Failure, ServerStopsWhileHostedGraphRuns) {
  // stop() must wait for the hosted graph to finish, not strand it.
  auto client_node = dist::NodeContext::create();
  auto server = std::make_unique<rmi::ComputeServer>("stopper");

  auto ch1 = std::make_shared<Channel>(256);
  auto ch2 = std::make_shared<Channel>(256);
  auto middle = std::make_shared<Identity>(ch1->input(), ch2->output());
  rmi::ServerHandle handle{rmi::Endpoint{"127.0.0.1", server->port()},
                           client_node};
  handle.submit(middle);

  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto source = std::make_shared<Sequence>(0, ch1->output(), 50);
  auto drain = std::make_shared<Collect>(ch2->input(), sink);
  std::jthread src{[&] { source->run(); }};
  drain->run();
  ASSERT_EQ(sink->size(), 50u);

  server->stop();  // graph has terminated; stop() returns promptly
  server.reset();
  SUCCEED();
}

// --- API misuse and double operations ----------------------------------------------

TEST(Failure, DoubleCloseIsIdempotent) {
  Channel channel{64};
  EXPECT_NO_THROW(channel.output()->close());
  EXPECT_NO_THROW(channel.output()->close());
  EXPECT_NO_THROW(channel.input()->close());
  EXPECT_NO_THROW(channel.input()->close());
}

TEST(Failure, WriteAfterOwnCloseThrows) {
  Channel channel{64};
  channel.output()->close();
  io::DataOutputStream out{*channel.output()};
  EXPECT_THROW(out.write_i64(1), IoError);
}

TEST(Failure, ReadAfterOwnCloseThrows) {
  Channel channel{64};
  channel.input()->close();
  io::DataInputStream in{*channel.input()};
  EXPECT_THROW(in.read_i64(), IoError);
}

TEST(Failure, NetworkAbortUnblocksEverything) {
  core::Network network;
  auto ch = network.make_channel({.capacity = 64});
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  network.add(std::make_shared<Sequence>(0, ch->output()));  // unbounded
  network.add(std::make_shared<Collect>(ch->input(), sink));
  network.start();
  while (sink->size() < 10) std::this_thread::yield();
  network.abort();
  network.join();  // both processes stop on Interrupted
  SUCCEED();
}

TEST(Failure, ImageDecoderRandomFuzz) {
  // decompress_image on random bytes: throws IoError or succeeds, never
  // crashes (success is astronomically unlikely but permitted).
  Xoshiro256 rng{777};
  for (int round = 0; round < 200; ++round) {
    ByteVector junk(rng.below(200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    try {
      (void)image::decompress_image({junk.data(), junk.size()});
    } catch (const IoError&) {
    } catch (const std::logic_error&) {
    }
  }
  SUCCEED();
}

// --- Fault layer: timeouts, retries, leases, recovery (ctest -L fault) --------
//
// These tests exercise the dpn::fault machinery end to end: connect
// deadlines and injected connect faults, the socket kill-switch, registry
// NACK eviction, compute-server heartbeats/leases, and meta_dynamic's
// worker-failure recovery (byte-identical output after a mid-stream
// worker death).

TEST(Fault, ConnectDeadlineOnBlackholedAddress) {
  // 203.0.113.1 (TEST-NET-3) is guaranteed unrouted: depending on the
  // host's network either the SYN blackholes (deadline fires) or the
  // stack reports unreachable immediately.  Both must surface as NetError
  // well before the old indefinite-block behaviour would.  Some sandboxed
  // environments intercept *all* connects with a transparent proxy; there
  // the deadline path is still covered by the injection test below.
  const auto start = std::chrono::steady_clock::now();
  try {
    net::Socket socket =
        net::Socket::connect("203.0.113.1", 9, std::chrono::milliseconds{300});
    GTEST_SKIP() << "environment routes TEST-NET-3 (transparent proxy); "
                    "deadline behaviour exercised via fault injection";
  } catch (const NetError&) {
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds{5});
  }
}

TEST(Fault, InjectedConnectDelayHonoursDeadline) {
  auto plan = std::make_shared<fault::Plan>();
  plan->delay_connect("10.9.9.9", 4242, std::chrono::seconds{10});
  fault::ScopedPlan scoped{std::move(plan)};
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(
      net::Socket::connect("10.9.9.9", 4242, std::chrono::milliseconds{200}),
      NetError);
  // The injected 10s delay must be clipped to the connect deadline.
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds{5});
}

TEST(Fault, ConnectRetryRecoversAfterInjectedDrops) {
  rmi::Registry registry{0};  // any real listener will do
  auto plan = std::make_shared<fault::Plan>();
  plan->drop_connect("127.0.0.1", registry.port(), 2);
  fault::ScopedPlan scoped{std::move(plan)};

  const std::uint64_t retries_before =
      fault::stats().connect_retries.load(std::memory_order_relaxed);
  fault::RetryPolicy policy;
  policy.initial_backoff = std::chrono::milliseconds{5};
  policy.max_backoff = std::chrono::milliseconds{20};
  // Two injected drops, then success on the third attempt.
  net::Socket socket =
      net::connect_with_retry("127.0.0.1", registry.port(), policy);
  EXPECT_GE(fault::stats().connect_retries.load(std::memory_order_relaxed),
            retries_before + 2);
}

TEST(Fault, RetryExhaustionCountsFailure) {
  auto plan = std::make_shared<fault::Plan>();
  plan->drop_connect("127.0.0.1", 1, -1);  // every attempt refused
  fault::ScopedPlan scoped{std::move(plan)};

  const std::uint64_t failures_before =
      fault::stats().connect_failures.load(std::memory_order_relaxed);
  fault::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = std::chrono::milliseconds{1};
  policy.max_backoff = std::chrono::milliseconds{4};
  EXPECT_THROW(net::connect_with_retry("127.0.0.1", 1, policy), NetError);
  EXPECT_GE(fault::stats().connect_failures.load(std::memory_order_relaxed),
            failures_before + 1);
}

TEST(Fault, RetryBackoffIsDeterministicAndCapped) {
  fault::RetryPolicy policy;
  policy.seed = 42;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    const auto first = policy.backoff(attempt);
    const auto again = policy.backoff(attempt);
    EXPECT_EQ(first, again) << "attempt " << attempt;  // same seed, same delay
    EXPECT_GE(first.count(), 0);
    // Capped at max_backoff plus the jitter fraction.
    EXPECT_LE(first.count(),
              static_cast<long>(
                  static_cast<double>(policy.max_backoff.count()) *
                  (1.0 + policy.jitter)) +
                  1);
  }
}

TEST(Fault, SocketKilledAfterByteBudget) {
  net::ServerSocket server{0};
  std::jthread reader{[&] {
    try {
      net::Socket peer = server.accept();
      std::uint8_t buffer[512];
      while (peer.read_some({buffer, sizeof buffer}) > 0) {
      }
    } catch (const std::exception&) {
    }
  }};

  auto plan = std::make_shared<fault::Plan>();
  plan->kill_after_bytes("127.0.0.1", server.port(), 1000, 1);
  fault::ScopedPlan scoped{std::move(plan)};

  net::Socket socket = net::Socket::connect("127.0.0.1", server.port());
  auto flood = [&] {
    const ByteVector chunk(256, 0xAB);
    for (int i = 0; i < 1000; ++i) {
      socket.write_all({chunk.data(), chunk.size()});
    }
  };
  // The budget expires after ~1000 bytes; the metered socket hard-resets
  // and the write surfaces as an IoError, long before 256000 bytes.
  EXPECT_THROW(flood(), IoError);
  server.close();
}

TEST(Fault, MuxConnectionKilledSurfacesWorkerLostPerStream) {
  // Two logical channels ride node B's single mux connection back to
  // node A.  Kill that shared connection after a byte budget: every
  // affected consumer must see WorkerLost promptly -- not a hang, and
  // not a silent truncation dressed up as a clean end-of-stream.
  auto node_a = dist::NodeContext::create();
  auto node_b = dist::NodeContext::create();

  auto ch1 = std::make_shared<Channel>(256);
  auto ch2 = std::make_shared<Channel>(256);
  auto sink1 = std::make_shared<CollectSink<std::int64_t>>();
  auto sink2 = std::make_shared<CollectSink<std::int64_t>>();
  auto source1 = std::make_shared<Sequence>(0, ch1->output());    // unbounded
  auto source2 = std::make_shared<Sequence>(100, ch2->output());  // unbounded
  auto drain1 = std::make_shared<Collect>(ch1->input(), sink1);
  auto drain2 = std::make_shared<Collect>(ch2->input(), sink2);

  const ByteVector ship1 = dist::ship_process(node_a, source1);
  const ByteVector ship2 = dist::ship_process(node_a, source2);

  // Budget well past the rendezvous handshakes (~100 bytes) but far
  // short of the producers' unbounded output.  Both dial-backs target
  // node A's rendezvous, so they share one metered connection.
  auto plan = std::make_shared<fault::Plan>();
  plan->kill_after_bytes("127.0.0.1", node_a->rendezvous().port(), 8192, 1);
  fault::ScopedPlan scoped{std::move(plan)};

  auto remote1 = std::dynamic_pointer_cast<core::IterativeProcess>(
      dist::receive_process(node_b, {ship1.data(), ship1.size()}));
  auto remote2 = std::dynamic_pointer_cast<core::IterativeProcess>(
      dist::receive_process(node_b, {ship2.data(), ship2.size()}));
  ASSERT_TRUE(remote1);
  ASSERT_TRUE(remote2);

  // The producers die of ChannelClosed when the connection resets; that
  // side's stop is routine (a lost *consumer* is end-of-demand).
  std::jthread prod1{[&] {
    try {
      remote1->run();
    } catch (const std::exception&) {
    }
  }};
  std::jthread prod2{[&] {
    try {
      remote2->run();
    } catch (const std::exception&) {
    }
  }};

  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(drain1->run(), WorkerLost);
  EXPECT_THROW(drain2->run(), WorkerLost);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds{30});
}

TEST(Fault, RegistryEvictsUnreachableEndpoints) {
  rmi::Registry registry{0};
  rmi::RegistryClient client{"127.0.0.1", registry.port()};
  const rmi::Endpoint dead{"127.0.0.1", 1};

  client.register_name("ghost", dead);
  ASSERT_TRUE(client.lookup("ghost").has_value());

  // Two strikes, then a re-register: the fresh registration wipes the
  // count, so a restarted server is not punished for its predecessor.
  EXPECT_FALSE(client.report_unreachable("ghost", dead));
  EXPECT_FALSE(client.report_unreachable("ghost", dead));
  client.register_name("ghost", dead);
  EXPECT_FALSE(client.report_unreachable("ghost", dead));
  EXPECT_FALSE(client.report_unreachable("ghost", dead));
  EXPECT_TRUE(client.lookup("ghost").has_value());

  // Third consecutive strike against the current endpoint evicts.
  EXPECT_TRUE(client.report_unreachable("ghost", dead));
  EXPECT_FALSE(client.lookup("ghost").has_value());

  // Reports about a *different* endpoint never touch the live entry.
  client.register_name("ghost", dead);
  const rmi::Endpoint elsewhere{"127.0.0.1", 2};
  for (int i = 0; i < 2 * rmi::Registry::kEvictStrikes; ++i) {
    EXPECT_FALSE(client.report_unreachable("ghost", elsewhere));
  }
  EXPECT_TRUE(client.lookup("ghost").has_value());
}

TEST(Fault, LeaseExpiryFailsFastOnSilentServer) {
  // A "server" that accepts streams and never replies: without leases,
  // TaskFuture::get() would hang forever.  Accepting through the default
  // transport (rather than a raw ServerSocket) keeps the dial handshake
  // working under both backends -- a mux client completes its preface
  // against a transport listener, then waits on a reply that never comes.
  auto silent = net::default_transport().listen(0);
  std::vector<std::shared_ptr<net::Stream>> held;
  std::jthread acceptor{[&] {
    try {
      for (;;) held.push_back(silent->accept());
    } catch (const NetError&) {
    }
  }};

  const std::uint64_t expiries_before =
      fault::stats().lease_expiries.load(std::memory_order_relaxed);
  rmi::ServerHandle handle{
      rmi::Endpoint{"127.0.0.1", silent->port()}, nullptr,
      fault::LeaseOptions{std::chrono::milliseconds{50},
                          std::chrono::milliseconds{300}}};
  auto future = handle.submit(std::make_shared<par::StopSignal>());
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(future.get(), WorkerLost);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds{10});
  EXPECT_GE(fault::stats().lease_expiries.load(std::memory_order_relaxed),
            expiries_before + 1);
  silent->close();
}

/// A task that takes much longer than the client's patience -- only the
/// server's heartbeats keep the lease alive.
class SlowTask final : public core::Task {
 public:
  std::shared_ptr<core::Task> run() override {
    std::this_thread::sleep_for(std::chrono::milliseconds{700});
    return std::make_shared<par::StopSignal>();
  }
  std::string type_name() const override { return "test.fault.SlowTask"; }
  void write_fields(serial::ObjectOutputStream&) const override {}
  static std::shared_ptr<SlowTask> read_object(serial::ObjectInputStream&) {
    return std::make_shared<SlowTask>();
  }
};

TEST(Fault, HeartbeatsKeepSlowTaskAlive) {
  rmi::ComputeServer server{
      "slowpoke", nullptr,
      fault::LeaseOptions{std::chrono::milliseconds{50},
                          std::chrono::milliseconds{2000}}};
  rmi::ServerHandle handle{
      rmi::Endpoint{"127.0.0.1", server.port()}, nullptr,
      fault::LeaseOptions{std::chrono::milliseconds{50},
                          std::chrono::milliseconds{300}}};
  // The task runs ~700ms against a 300ms patience: without heartbeats
  // this would throw WorkerLost; with them it completes.
  auto result = handle.submit(std::make_shared<SlowTask>()).get();
  EXPECT_TRUE(std::dynamic_pointer_cast<par::StopSignal>(result));
  server.stop();
}

TEST(Fault, SnapshotRoundTripsFaultCounters) {
  obs::NetworkSnapshot snap;
  snap.connect_retries = 7;
  snap.connect_failures = 2;
  snap.tasks_reissued = 3;
  snap.workers_lost = 1;
  snap.lease_expiries = 4;
  snap.registry_evictions = 5;
  snap.faults_injected = 6;
  const ByteVector bytes = snap.encode();
  const auto decoded = obs::NetworkSnapshot::decode({bytes.data(),
                                                     bytes.size()});
  EXPECT_EQ(decoded.connect_retries, 7u);
  EXPECT_EQ(decoded.connect_failures, 2u);
  EXPECT_EQ(decoded.tasks_reissued, 3u);
  EXPECT_EQ(decoded.workers_lost, 1u);
  EXPECT_EQ(decoded.lease_expiries, 4u);
  EXPECT_EQ(decoded.registry_evictions, 5u);
  EXPECT_EQ(decoded.faults_injected, 6u);
}

// --- meta_dynamic worker-failure recovery ------------------------------------------

/// Producer task yielding FaultItem 0..count-1 then null.
class FaultProducerTask final : public core::Task {
 public:
  FaultProducerTask() = default;
  explicit FaultProducerTask(std::int64_t count) : remaining_(count) {}

  std::shared_ptr<core::Task> run() override;

  std::string type_name() const override { return "test.fault.Producer"; }
  void write_fields(serial::ObjectOutputStream& out) const override {
    out.write_i64(next_);
    out.write_i64(remaining_);
  }
  static std::shared_ptr<FaultProducerTask> read_object(
      serial::ObjectInputStream& in) {
    auto task = std::make_shared<FaultProducerTask>();
    task->next_ = in.read_i64();
    task->remaining_ = in.read_i64();
    return task;
  }

 private:
  std::int64_t next_ = 0;
  std::int64_t remaining_ = 0;
};

class FaultItem final : public core::Task {
 public:
  FaultItem() = default;
  explicit FaultItem(std::int64_t id) : id_(id) {}

  std::shared_ptr<core::Task> run() override;

  std::string type_name() const override { return "test.fault.Item"; }
  void write_fields(serial::ObjectOutputStream& out) const override {
    out.write_i64(id_);
  }
  static std::shared_ptr<FaultItem> read_object(serial::ObjectInputStream& in) {
    auto task = std::make_shared<FaultItem>();
    task->id_ = in.read_i64();
    return task;
  }

 private:
  std::int64_t id_ = 0;
};

class FaultResult final : public core::Task {
 public:
  FaultResult() = default;
  FaultResult(std::int64_t id, std::int64_t value) : id_(id), value_(value) {}
  std::int64_t id() const { return id_; }
  std::int64_t value() const { return value_; }

  std::shared_ptr<core::Task> run() override { return nullptr; }
  std::string type_name() const override { return "test.fault.Result"; }
  void write_fields(serial::ObjectOutputStream& out) const override {
    out.write_i64(id_);
    out.write_i64(value_);
  }
  static std::shared_ptr<FaultResult> read_object(
      serial::ObjectInputStream& in) {
    auto task = std::make_shared<FaultResult>();
    task->id_ = in.read_i64();
    task->value_ = in.read_i64();
    return task;
  }

 private:
  std::int64_t id_ = 0;
  std::int64_t value_ = 0;
};

std::shared_ptr<core::Task> FaultProducerTask::run() {
  if (remaining_ == 0) return nullptr;
  --remaining_;
  return std::make_shared<FaultItem>(next_++);
}

std::shared_ptr<core::Task> FaultItem::run() {
  // Odd tasks are slow so completions interleave across workers.
  if (id_ % 2 == 1) std::this_thread::sleep_for(std::chrono::milliseconds{1});
  return std::make_shared<FaultResult>(id_, id_ * 7 + 1);
}

[[maybe_unused]] const bool kFaultTasksRegistered =
    serial::register_type<SlowTask>("test.fault.SlowTask") &&
    serial::register_type<FaultProducerTask>("test.fault.Producer") &&
    serial::register_type<FaultItem>("test.fault.Item") &&
    serial::register_type<FaultResult>("test.fault.Result");

/// A worker that dies mid-task: after completing `crash_after` tasks it
/// reads the next one and then throws -- leaving that task dispatched but
/// unacknowledged, exactly the state the ledger must recover from.
class FlakyWorker final : public core::IterativeProcess {
 public:
  FlakyWorker(std::shared_ptr<core::ChannelInputStream> in,
              std::shared_ptr<core::ChannelOutputStream> out,
              std::int64_t crash_after)
      : crash_after_(crash_after) {
    track_input(std::move(in));
    track_output(std::move(out));
  }

  std::string type_name() const override { return "test.fault.FlakyWorker"; }
  void write_fields(serial::ObjectOutputStream&) const override {
    throw SerializationError{"FlakyWorker is test-local"};
  }

 protected:
  void step() override {
    io::DataInputStream in{*input(0)};
    auto task = par::read_task(in);
    if (++seen_ > crash_after_) {
      throw std::runtime_error{"injected worker crash"};
    }
    auto result = task->run();
    io::DataOutputStream out{*output(0)};
    par::write_task(out, result);
  }

 private:
  std::int64_t crash_after_ = 0;
  std::int64_t seen_ = 0;
};

/// Runs producer -> meta_dynamic(workers, factory) -> consumer and
/// returns the observed (id, value) pairs in consumer order.
std::vector<std::pair<std::int64_t, std::int64_t>> run_dynamic(
    std::int64_t tasks, std::size_t workers, const par::WorkerFactory& factory) {
  std::mutex mutex;
  std::vector<std::pair<std::int64_t, std::int64_t>> seen;
  auto observer = [&](const std::shared_ptr<core::Task>& task) {
    auto result = std::dynamic_pointer_cast<FaultResult>(task);
    ASSERT_TRUE(result);
    std::scoped_lock lock{mutex};
    seen.emplace_back(result->id(), result->value());
  };
  auto graph = par::pipeline(
      std::make_shared<FaultProducerTask>(tasks), observer,
      [&](auto in, auto out) {
        return par::meta_dynamic(std::move(in), std::move(out), workers,
                                 factory);
      });
  graph->run();
  return seen;
}

TEST(Fault, MetaDynamicRecoversFromWorkerDeath) {
  constexpr std::int64_t kTasks = 64;
  constexpr std::size_t kWorkers = 4;

  // Reference: the failure-free run.
  const auto reference = run_dynamic(kTasks, kWorkers, {});
  ASSERT_EQ(reference.size(), static_cast<std::size_t>(kTasks));

  // Chaos run: worker 1 dies mid-task after completing three tasks.
  const std::uint64_t reissued_before =
      fault::stats().tasks_reissued.load(std::memory_order_relaxed);
  const std::uint64_t lost_before =
      fault::stats().workers_lost.load(std::memory_order_relaxed);
  const auto recovered = run_dynamic(
      kTasks, kWorkers,
      [](std::size_t index, std::shared_ptr<core::ChannelInputStream> in,
         std::shared_ptr<core::ChannelOutputStream> out)
          -> std::shared_ptr<core::Process> {
        if (index == 1) {
          return std::make_shared<FlakyWorker>(std::move(in), std::move(out),
                                               3);
        }
        return std::make_shared<par::Worker>(std::move(in), std::move(out));
      });

  // Byte-identical output: same results, same order, nothing duplicated
  // or dropped -- the acceptance criterion for ledger recovery.
  EXPECT_EQ(recovered, reference);
  EXPECT_GE(fault::stats().tasks_reissued.load(std::memory_order_relaxed),
            reissued_before + 1);
  EXPECT_GE(fault::stats().workers_lost.load(std::memory_order_relaxed),
            lost_before + 1);
}

TEST(Fault, MetaDynamicRecoveredRunsAreRepeatable) {
  // Determinism: two chaos runs with the same crash point produce the
  // same output (which also equals the failure-free order, checked above).
  const par::WorkerFactory flaky =
      [](std::size_t index, std::shared_ptr<core::ChannelInputStream> in,
         std::shared_ptr<core::ChannelOutputStream> out)
      -> std::shared_ptr<core::Process> {
    if (index == 2) {
      return std::make_shared<FlakyWorker>(std::move(in), std::move(out), 2);
    }
    return std::make_shared<par::Worker>(std::move(in), std::move(out));
  };
  const auto first = run_dynamic(48, 3, flaky);
  const auto second = run_dynamic(48, 3, flaky);
  ASSERT_EQ(first.size(), 48u);
  EXPECT_EQ(first, second);
}

TEST(Fault, MetaDynamicSingleWorkerDeathSurfacesWorkerLost) {
  // With one worker there are no survivors to re-issue to: the schema
  // must fail loudly (WorkerLost) instead of deadlocking -- the n=1
  // regression this PR fixes.
  std::mutex mutex;
  std::vector<std::int64_t> seen;
  auto observer = [&](const std::shared_ptr<core::Task>& task) {
    auto result = std::dynamic_pointer_cast<FaultResult>(task);
    std::scoped_lock lock{mutex};
    if (result) seen.push_back(result->id());
  };
  auto graph = par::pipeline(
      std::make_shared<FaultProducerTask>(16), observer,
      [](auto in, auto out) {
        return par::meta_dynamic(
            std::move(in), std::move(out), 1,
            [](std::size_t, std::shared_ptr<core::ChannelInputStream> wi,
               std::shared_ptr<core::ChannelOutputStream> wo)
                -> std::shared_ptr<core::Process> {
              return std::make_shared<FlakyWorker>(std::move(wi),
                                                   std::move(wo), 3);
            });
      });
  EXPECT_THROW(graph->run(), WorkerLost);
  // The completed prefix was still delivered in order.
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], static_cast<std::int64_t>(i));
  }
}

}  // namespace
}  // namespace dpn
