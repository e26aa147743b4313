#include <gtest/gtest.h>

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

#include "io/blocking.hpp"
#include "io/data.hpp"
#include "io/memory.hpp"
#include "io/pipe.hpp"
#include "io/sequence.hpp"
#include "sched/scheduler.hpp"
#include "support/rng.hpp"

namespace dpn::io {
namespace {

ByteVector bytes_of(std::initializer_list<int> values) {
  ByteVector out;
  for (const int v : values) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

// --- Pipe -----------------------------------------------------------------

TEST(Pipe, WriteThenRead) {
  Pipe pipe{16};
  const ByteVector data = bytes_of({1, 2, 3});
  pipe.write({data.data(), data.size()});
  ByteVector out(3);
  EXPECT_EQ(pipe.read_some({out.data(), out.size()}), 3u);
  EXPECT_EQ(out, data);
}

TEST(Pipe, ReadBlocksUntilWrite) {
  Pipe pipe{16};
  std::jthread writer{[&] {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
    const ByteVector data = bytes_of({7});
    pipe.write({data.data(), data.size()});
  }};
  std::uint8_t b = 0;
  EXPECT_EQ(pipe.read_some({&b, 1}), 1u);
  EXPECT_EQ(b, 7);
}

TEST(Pipe, WriteBlocksWhenFull) {
  Pipe pipe{4};
  const ByteVector data = bytes_of({1, 2, 3, 4});
  pipe.write({data.data(), data.size()});
  std::atomic<bool> wrote{false};
  std::jthread writer{[&] {
    const ByteVector more = bytes_of({5});
    pipe.write({more.data(), more.size()});
    wrote.store(true);
  }};
  std::this_thread::sleep_for(std::chrono::milliseconds{10});
  EXPECT_FALSE(wrote.load());  // writer is blocked on the full pipe
  ByteVector out(5);
  std::size_t got = 0;
  while (got < 5) got += pipe.read_some({out.data() + got, 5 - got});
  writer.join();
  EXPECT_TRUE(wrote.load());
  EXPECT_EQ(out, bytes_of({1, 2, 3, 4, 5}));
}

TEST(Pipe, CloseWriteDeliversEofAfterDrain) {
  Pipe pipe{16};
  const ByteVector data = bytes_of({1, 2});
  pipe.write({data.data(), data.size()});
  pipe.close_write();
  ByteVector out(2);
  EXPECT_EQ(pipe.read_some({out.data(), 2}), 2u);
  std::uint8_t b = 0;
  EXPECT_EQ(pipe.read_some({&b, 1}), 0u);  // end of stream
  EXPECT_EQ(pipe.read_some({&b, 1}), 0u);  // sticky
}

TEST(Pipe, CloseReadMakesWriteThrow) {
  Pipe pipe{16};
  pipe.close_read();
  const ByteVector data = bytes_of({1});
  EXPECT_THROW(pipe.write({data.data(), data.size()}), ChannelClosed);
}

TEST(Pipe, CloseReadWakesBlockedWriter) {
  Pipe pipe{2};
  const ByteVector data = bytes_of({1, 2});
  pipe.write({data.data(), data.size()});
  std::jthread closer{[&] {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
    pipe.close_read();
  }};
  const ByteVector more = bytes_of({3});
  EXPECT_THROW(pipe.write({more.data(), more.size()}), ChannelClosed);
}

TEST(Pipe, CloseWriteWakesBlockedReader) {
  Pipe pipe{16};
  std::jthread closer{[&] {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
    pipe.close_write();
  }};
  std::uint8_t b = 0;
  EXPECT_EQ(pipe.read_some({&b, 1}), 0u);
}

TEST(Pipe, AbortWakesBothSides) {
  Pipe pipe{2};
  const ByteVector data = bytes_of({1, 2});
  pipe.write({data.data(), data.size()});
  std::jthread aborter{[&] {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
    pipe.abort();
  }};
  const ByteVector more = bytes_of({3});
  EXPECT_THROW(pipe.write({more.data(), more.size()}), Interrupted);
}

TEST(Pipe, GrowUnblocksWriter) {
  Pipe pipe{2};
  const ByteVector data = bytes_of({1, 2});
  pipe.write({data.data(), data.size()});
  std::atomic<bool> wrote{false};
  std::jthread writer{[&] {
    const ByteVector more = bytes_of({3, 4});
    pipe.write({more.data(), more.size()});
    wrote.store(true);
  }};
  std::this_thread::sleep_for(std::chrono::milliseconds{10});
  EXPECT_FALSE(wrote.load());
  pipe.grow(8);
  writer.join();
  EXPECT_TRUE(wrote.load());
  EXPECT_EQ(pipe.size(), 4u);
  EXPECT_EQ(pipe.capacity(), 8u);
}

TEST(Pipe, SetUnboundedUnblocksWriter) {
  Pipe pipe{1};
  const ByteVector a = bytes_of({1});
  pipe.write({a.data(), a.size()});
  std::jthread writer{[&] {
    const ByteVector big(100, 9);
    pipe.write({big.data(), big.size()});
  }};
  std::this_thread::sleep_for(std::chrono::milliseconds{5});
  pipe.set_unbounded();
  writer.join();
  EXPECT_EQ(pipe.size(), 101u);
}

TEST(Pipe, StealBufferTakesEverythingAndFrees) {
  Pipe pipe{8};
  const ByteVector data = bytes_of({1, 2, 3, 4, 5});
  pipe.write({data.data(), data.size()});
  const ByteVector stolen = pipe.steal_buffer();
  EXPECT_EQ(stolen, data);
  EXPECT_EQ(pipe.size(), 0u);
}

TEST(Pipe, BlockedCountsVisible) {
  Pipe pipe{4};
  EXPECT_EQ(pipe.blocked_readers(), 0u);
  std::jthread reader{[&] {
    std::uint8_t b = 0;
    pipe.read_some({&b, 1});
  }};
  std::this_thread::sleep_for(std::chrono::milliseconds{10});
  EXPECT_EQ(pipe.blocked_readers(), 1u);
  const ByteVector data = bytes_of({1});
  pipe.write({data.data(), data.size()});
}

TEST(Pipe, ReadAtCloseNeverDropsTheLastBytes) {
  // The writer's last write and its close can land while the reader is
  // between its empty probe and its look at the flags.  read_some must
  // still return those bytes before end-of-stream: dropping them would
  // silently truncate the history.  Many trials, the reader racing on
  // another thread.
  for (int trial = 0; trial < 2000; ++trial) {
    Pipe pipe{16};
    const std::size_t count = static_cast<std::size_t>(trial % 3);
    std::atomic<bool> reading{false};
    ByteVector got;
    std::jthread reader{[&] {
      reading.store(true);
      std::uint8_t b = 0;
      while (pipe.read_some({&b, 1}) == 1) got.push_back(b);
    }};
    while (!reading.load()) std::this_thread::yield();
    for (int spin = 0; spin < trial % 64; ++spin) {
      std::atomic_signal_fence(std::memory_order_seq_cst);
    }
    for (std::size_t i = 0; i < count; ++i) {
      const auto b = static_cast<std::uint8_t>(i);
      pipe.write({&b, 1});
    }
    pipe.close_write();  // before any ASSERT: the reader must end
    reader.join();
    ASSERT_EQ(got.size(), count) << "trial " << trial;
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(got[i], static_cast<std::uint8_t>(i));
    }
  }
}

/// Property: any split of a byte sequence across writes and reads, at any
/// capacity, reproduces the sequence exactly (ring wraparound correctness).
class PipeRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PipeRoundTrip, PreservesByteSequence) {
  const std::size_t capacity = GetParam();
  Pipe pipe{capacity};
  Xoshiro256 rng{capacity * 7919 + 1};
  ByteVector sent(4096);
  for (auto& b : sent) b = static_cast<std::uint8_t>(rng.next());

  std::jthread writer{[&] {
    Xoshiro256 wrng{capacity};
    std::size_t off = 0;
    while (off < sent.size()) {
      const std::size_t n =
          std::min<std::size_t>(1 + wrng.below(97), sent.size() - off);
      pipe.write({sent.data() + off, n});
      off += n;
    }
    pipe.close_write();
  }};

  ByteVector received;
  ByteVector chunk(61);
  for (;;) {
    const std::size_t n = pipe.read_some({chunk.data(), chunk.size()});
    if (n == 0) break;
    received.insert(received.end(), chunk.begin(), chunk.begin() + n);
  }
  EXPECT_EQ(received, sent);
}

INSTANTIATE_TEST_SUITE_P(Capacities, PipeRoundTrip,
                         ::testing::Values(1, 2, 3, 7, 16, 61, 256, 4096));

// --- Pipe cuts racing traffic -----------------------------------------------

/// Byte `pos` of the history every writer below writes.
std::uint8_t history_byte(std::uint64_t pos) {
  return static_cast<std::uint8_t>((pos * 2654435761u) >> 13);
}

/// One writer and one reader over a pipe, and what each saw.
struct Traffic {
  std::uint64_t written = 0;  // bytes of writes that returned
  ByteVector read;
  std::atomic<std::uint64_t> progress{0};  // read.size(), for the cutter
  // At 0 or more, both sides first wait for each other, then each spins
  // its delay, so the last write and the close race the reader's probes.
  int delay = -1;
  int reader_delay = 0;
  std::atomic<int> arrived{0};

  void start_together(int spins) {
    if (delay < 0) return;
    arrived.fetch_add(1);
    while (arrived.load() < 2) std::this_thread::yield();
    for (int spin = 0; spin < spins; ++spin) {
      std::atomic_signal_fence(std::memory_order_seq_cst);
    }
  }
  std::exception_ptr writer_error;
  std::exception_ptr reader_error;
  bool eof = false;

  /// Writes history bytes [0, total) in writes of 1..37 bytes, plain and
  /// vectored in turn, then closes the write end; stops at the first
  /// exception.
  void write(Pipe& pipe, std::uint64_t total) {
    start_together(delay);
    ByteVector chunk;
    try {
      for (std::uint64_t i = 0; written < total; ++i) {
        const auto n = static_cast<std::size_t>(
            std::min<std::uint64_t>(total - written, 1 + i % 37));
        chunk.resize(n);
        for (std::size_t k = 0; k < n; ++k) {
          chunk[k] = history_byte(written + k);
        }
        const ByteSpan all{chunk.data(), n};
        if (i % 2 == 0) {
          pipe.write(all);
        } else {
          pipe.write_vectored(all.first(n / 2), all.subspan(n / 2));
        }
        written += n;
      }
      pipe.close_write();
    } catch (...) {
      writer_error = std::current_exception();
    }
  }

  /// Reads in reads of 1..50 bytes until end-of-stream or an exception.
  void read_all(Pipe& pipe) {
    start_together(reader_delay);
    ByteVector buffer(50);
    try {
      for (std::size_t i = 0;; ++i) {
        const std::size_t n = pipe.read_some({buffer.data(), 1 + i % 50});
        if (n == 0) {
          eof = true;
          return;
        }
        read.insert(read.end(), buffer.begin(),
                    buffer.begin() + static_cast<std::ptrdiff_t>(n));
        progress.store(read.size(), std::memory_order_relaxed);
      }
    } catch (...) {
      reader_error = std::current_exception();
    }
  }

  /// The bytes read are exactly the first read.size() of the history.
  bool read_is_history_prefix() const {
    for (std::size_t i = 0; i < read.size(); ++i) {
      if (read[i] != history_byte(i)) return false;
    }
    return true;
  }

  /// Waits (bounded) until the reader has `bytes` or stopped.
  void await_progress(std::uint64_t bytes) const {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds{20};
    while (progress.load(std::memory_order_relaxed) < bytes &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  }
};

template <class E>
bool holds(const std::exception_ptr& error) {
  if (!error) return false;
  try {
    std::rethrow_exception(error);
  } catch (const E&) {
    return true;
  } catch (...) {
    return false;
  }
}

/// Runs the writer and the reader on threads of their own, or as fibers
/// on one M:N worker, with `cutter` on a third thread meanwhile.
void run_traffic(bool mn, Pipe& pipe, Traffic& traffic, std::uint64_t total,
                 const std::function<void()>& cutter) {
  std::jthread cut{cutter};
  if (mn) {
    sched::Scheduler scheduler{
        {.mode = sched::SchedMode::kWorkSteal, .workers = 1}};
    scheduler.spawn([&] { traffic.read_all(pipe); });
    scheduler.spawn([&] { traffic.write(pipe, total); });
    scheduler.wait_quiescent();
  } else {
    std::jthread reader{[&] { traffic.read_all(pipe); }};
    std::jthread writer{[&] { traffic.write(pipe, total); }};
  }
}

TEST(Pipe, CutsRacingTrafficKeepExactHistory) {
  // Every cut a live pipe takes, against a writer and a reader that keep
  // running, on threads and on one M:N worker.  The reader's history must
  // be exact -- no byte lost, duplicated or reordered -- and no side may
  // be left parked.
  for (const bool mn : {false, true}) {
    SCOPED_TRACE(mn ? "one M:N worker" : "threads");

    {  // grow and set_unbounded from a third thread, both sides live.
      constexpr std::uint64_t kTotal = 200000;
      Pipe pipe{16};
      Traffic traffic;
      run_traffic(mn, pipe, traffic, kTotal, [&] {
        // Mostly no-op grows (bare cuts); every 64th raises the bound.
        for (int i = 0; traffic.progress.load() < kTotal / 2; ++i) {
          pipe.grow(pipe.capacity() + (i % 64 == 0 ? 1 : 0));
          std::this_thread::yield();
        }
        pipe.set_unbounded();
      });
      EXPECT_FALSE(traffic.writer_error);
      EXPECT_FALSE(traffic.reader_error);
      EXPECT_TRUE(traffic.eof);
      ASSERT_EQ(traffic.read.size(), kTotal);
      EXPECT_TRUE(traffic.read_is_history_prefix());
      EXPECT_EQ(pipe.blocked_readers(), 0u);
      EXPECT_EQ(pipe.blocked_writers(), 0u);
    }

    for (int trial = 0; trial < 2000; ++trial) {
      // close_write right after the last write (the writer's own close),
      // the reader racing: the last bytes are read before end-of-stream.
      // (On one worker the reader parks first and no race is possible.)
      const std::uint64_t total = static_cast<std::uint64_t>(trial % 40);
      Pipe pipe{16};
      Traffic traffic;
      traffic.delay = mn ? -1 : trial % 64;
      traffic.reader_delay = trial / 64 % 32 * 8;
      run_traffic(mn, pipe, traffic, total, [] {});
      ASSERT_FALSE(traffic.writer_error) << "trial " << trial;
      ASSERT_TRUE(traffic.eof) << "trial " << trial;
      ASSERT_EQ(traffic.read.size(), total) << "trial " << trial;
      ASSERT_TRUE(traffic.read_is_history_prefix()) << "trial " << trial;
    }

    for (int trial = 0; trial < 40; ++trial) {
      // close_read from a third thread while the writer keeps filling a
      // small pipe (and so keeps parking): the writer gets ChannelClosed,
      // the reader IoError, and what was read is an exact prefix.
      Pipe pipe{16};
      Traffic traffic;
      run_traffic(mn, pipe, traffic, std::uint64_t{1} << 22, [&] {
        traffic.await_progress(static_cast<std::uint64_t>(trial) * 97 % 3000);
        pipe.close_read();
      });
      ASSERT_TRUE(holds<ChannelClosed>(traffic.writer_error))
          << "trial " << trial;
      ASSERT_TRUE(holds<IoError>(traffic.reader_error)) << "trial " << trial;
      ASSERT_TRUE(traffic.read_is_history_prefix()) << "trial " << trial;
      // The failed write may have been published in part (37 bytes max).
      ASSERT_LE(traffic.read.size(), traffic.written + 37) << "trial " << trial;
      ASSERT_EQ(pipe.size(), 0u);
      ASSERT_EQ(pipe.blocked_readers(), 0u);
      ASSERT_EQ(pipe.blocked_writers(), 0u);
    }

    for (int trial = 0; trial < 40; ++trial) {
      // abort from a third thread, racing both sides: both see
      // Interrupted, and what was read is an exact prefix.
      Pipe pipe{16 + static_cast<std::size_t>(trial)};
      Traffic traffic;
      run_traffic(mn, pipe, traffic, std::uint64_t{1} << 22, [&] {
        traffic.await_progress(static_cast<std::uint64_t>(trial) * 131 % 3000);
        pipe.abort();
      });
      ASSERT_TRUE(holds<Interrupted>(traffic.writer_error))
          << "trial " << trial;
      ASSERT_TRUE(holds<Interrupted>(traffic.reader_error))
          << "trial " << trial;
      ASSERT_TRUE(traffic.read_is_history_prefix()) << "trial " << trial;
      ASSERT_EQ(pipe.blocked_readers(), 0u);
      ASSERT_EQ(pipe.blocked_writers(), 0u);
    }
  }
}

TEST(Pipe, StealRacingTheReaderTakesEachByteOnce) {
  // steal_buffer stops the reader and waits out its claim in flight.
  // Steals from a third thread, the reader and the writer never idle:
  // each byte reaches the reader or one stolen buffer, exactly once and
  // in order.
  for (int trial = 0; trial < 100; ++trial) {
    constexpr std::uint64_t kTotal = 200000;
    Pipe pipe{4096};
    Traffic traffic;
    ByteVector stolen;  // every steal's bytes, in order
    run_traffic(false, pipe, traffic, kTotal, [&] {
      while (traffic.progress.load() + stolen.size() < kTotal / 2) {
        const ByteVector some = pipe.steal_buffer();
        stolen.insert(stolen.end(), some.begin(), some.end());
      }
    });
    ASSERT_FALSE(traffic.writer_error) << "trial " << trial;
    ASSERT_FALSE(traffic.reader_error) << "trial " << trial;
    ASSERT_TRUE(traffic.eof) << "trial " << trial;
    ASSERT_EQ(traffic.read.size() + stolen.size(), kTotal)
        << "trial " << trial;
    // Each part is the history with the other's bytes taken out.
    const auto in_history_order = [](const ByteVector& part) {
      std::uint64_t pos = 0;
      for (const std::uint8_t b : part) {
        while (pos < kTotal && history_byte(pos) != b) ++pos;
        if (pos++ == kTotal) return false;
      }
      return true;
    };
    ASSERT_TRUE(in_history_order(traffic.read)) << "trial " << trial;
    ASSERT_TRUE(in_history_order(stolen)) << "trial " << trial;
  }
}

// --- Memory streams ---------------------------------------------------------

TEST(MemoryStreams, RoundTrip) {
  MemoryOutputStream out;
  const ByteVector data = bytes_of({1, 2, 3});
  out.write({data.data(), data.size()});
  MemoryInputStream in{out.take()};
  ByteVector read(3);
  EXPECT_EQ(in.read_some({read.data(), 3}), 3u);
  EXPECT_EQ(read, data);
  EXPECT_EQ(in.read(), -1);
}

TEST(MemoryStreams, WriteAfterCloseThrows) {
  MemoryOutputStream out;
  out.close();
  const ByteVector data = bytes_of({1});
  EXPECT_THROW(out.write({data.data(), data.size()}), IoError);
}

TEST(MemoryStreams, PartialReads) {
  MemoryInputStream in{bytes_of({1, 2, 3, 4, 5})};
  ByteVector buffer(2);
  EXPECT_EQ(in.read_some({buffer.data(), 2}), 2u);
  EXPECT_EQ(in.remaining(), 3u);
  EXPECT_EQ(in.read(), 3);
}

// --- read_fully / BlockingInputStream --------------------------------------

TEST(ReadFully, ThrowsOnShortStream) {
  MemoryInputStream in{bytes_of({1, 2})};
  ByteVector buffer(3);
  EXPECT_THROW(read_fully(in, {buffer.data(), 3}), EndOfStream);
}

TEST(BlockingInput, DeliversFullReads) {
  auto pipe = std::make_shared<Pipe>(4);
  BlockingInputStream blocking{std::make_shared<LocalInputStream>(pipe)};
  std::jthread writer{[&] {
    for (int i = 0; i < 10; ++i) {
      const ByteVector one = bytes_of({i});
      pipe->write({one.data(), one.size()});
      std::this_thread::sleep_for(std::chrono::milliseconds{1});
    }
  }};
  ByteVector buffer(10);
  EXPECT_EQ(blocking.read_some({buffer.data(), 10}), 10u);  // never short
  for (int i = 0; i < 10; ++i) EXPECT_EQ(buffer[i], i);
}

TEST(BlockingInput, SingleByteReadSeesEof) {
  auto pipe = std::make_shared<Pipe>(4);
  pipe->close_write();
  BlockingInputStream blocking{std::make_shared<LocalInputStream>(pipe)};
  EXPECT_EQ(blocking.read(), -1);
}

// --- SequenceInputStream -----------------------------------------------------

TEST(SequenceInput, ConcatenatesStreams) {
  SequenceInputStream seq{std::make_shared<MemoryInputStream>(bytes_of({1, 2}))};
  seq.append(std::make_shared<MemoryInputStream>(bytes_of({3})));
  seq.append(std::make_shared<MemoryInputStream>(bytes_of({4, 5})));
  ByteVector out;
  int b = 0;
  while ((b = seq.read()) >= 0) out.push_back(static_cast<std::uint8_t>(b));
  EXPECT_EQ(out, bytes_of({1, 2, 3, 4, 5}));
  EXPECT_TRUE(seq.finished());
}

TEST(SequenceInput, EofIsSticky) {
  SequenceInputStream seq{std::make_shared<MemoryInputStream>(bytes_of({1}))};
  EXPECT_EQ(seq.read(), 1);
  EXPECT_EQ(seq.read(), -1);
  seq.append(std::make_shared<MemoryInputStream>(bytes_of({2})));
  EXPECT_EQ(seq.read(), -1);  // a finished sequence stays finished
}

TEST(SequenceInput, SpliceWhileReaderBlocked) {
  // The reconfiguration pattern: the reader is blocked on the current
  // (pipe) stream while another process appends the successor, then
  // closes the pipe.
  auto pipe = std::make_shared<Pipe>(4);
  auto seq = std::make_shared<SequenceInputStream>(
      std::make_shared<LocalInputStream>(pipe));
  std::jthread splicer{[&] {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
    seq->append(std::make_shared<MemoryInputStream>(bytes_of({42})));
    pipe->close_write();
  }};
  EXPECT_EQ(seq->read(), 42);
  EXPECT_EQ(seq->read(), -1);
}

TEST(SequenceInput, CloseClosesAllQueued) {
  auto pipe = std::make_shared<Pipe>(4);
  SequenceInputStream seq{std::make_shared<LocalInputStream>(pipe)};
  seq.close();
  EXPECT_TRUE(pipe->read_closed());
  EXPECT_THROW(seq.read(), IoError);
}

TEST(SequenceInput, EmptySequenceIsEof) {
  SequenceInputStream seq;
  EXPECT_EQ(seq.read(), -1);
}

// --- SequenceOutputStream ---------------------------------------------------

TEST(SequenceOutput, SwitchPreservesOrder) {
  auto first = std::make_shared<MemoryOutputStream>();
  auto second = std::make_shared<MemoryOutputStream>();
  SequenceOutputStream seq{first};
  const ByteVector a = bytes_of({1, 2});
  seq.write({a.data(), a.size()});
  seq.switch_to(second, /*close_old=*/false);
  const ByteVector b = bytes_of({3});
  seq.write({b.data(), b.size()});
  EXPECT_EQ(first->data(), bytes_of({1, 2}));
  EXPECT_EQ(second->data(), bytes_of({3}));
}

TEST(SequenceOutput, WriteAfterCloseThrows) {
  SequenceOutputStream seq{std::make_shared<MemoryOutputStream>()};
  seq.close();
  const ByteVector a = bytes_of({1});
  EXPECT_THROW(seq.write({a.data(), a.size()}), IoError);
  EXPECT_THROW(
      seq.switch_to(std::make_shared<MemoryOutputStream>(), false), IoError);
}

// --- The endpoint contract: one reader, one writer, locks only at a cut ----

/// CPU seconds this process has used so far, all threads.
double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

/// An unbounded pipe: every write to it is one publish.
std::shared_ptr<Pipe> unbounded_pipe() {
  auto pipe = std::make_shared<Pipe>();
  pipe->set_unbounded();
  return pipe;
}

TEST(SequenceOutput, SwitchRacingWriterKeepsExactByteOrder) {
  // The writer never stops while the cut side switches the stream under
  // it over and over, closing or only stopping the old pipe: the pipes,
  // concatenated, are exactly the bytes written, and each 8-byte write --
  // one publish -- lands whole in one of them.  Halfway, the writer waits
  // for the first switch, so the first pipe must not hold the rest.
  constexpr std::uint64_t kTokens = 200000;
  constexpr int kSwitches = 300;
  std::vector<std::shared_ptr<Pipe>> segments{unbounded_pipe()};
  const std::shared_ptr<Pipe> first = segments.front();
  auto seq = std::make_shared<SequenceOutputStream>(
      std::make_shared<LocalOutputStream>(first));
  std::atomic<bool> writing{true};
  std::atomic<int> switches{0};
  std::jthread writer{[&] {
    for (std::uint64_t i = 0; i < kTokens; ++i) {
      if (i == kTokens / 2) {
        while (switches.load() == 0) std::this_thread::yield();
      }
      std::uint8_t token[8];
      put_u64(token, i);
      seq->write({token, sizeof token});
    }
    writing.store(false);
  }};
  for (int i = 0; i < kSwitches && writing.load(); ++i) {
    segments.push_back(unbounded_pipe());
    seq->switch_to(std::make_shared<LocalOutputStream>(segments.back()),
                   /*close_old=*/i % 2 == 0);
    switches.fetch_add(1);
  }
  writer.join();
  EXPECT_GT(segments.size(), 2u);
  EXPECT_LE(first->size(), kTokens / 2 * 8) << "the first switch missed";
  ByteVector all;
  for (const auto& segment : segments) {
    const ByteVector bytes = segment->steal_buffer();
    EXPECT_EQ(bytes.size() % 8, 0u);
    all.insert(all.end(), bytes.begin(), bytes.end());
  }
  ASSERT_EQ(all.size(), kTokens * 8);
  for (std::uint64_t i = 0; i < kTokens; ++i) {
    ASSERT_EQ(get_u64(all.data() + 8 * i), i);
  }
}

TEST(SequenceInput, CloseFromAnotherThreadWakesBlockedReader) {
  // The reader is parked inside its current stream, which it reads
  // without the sequence's lock; close() still reaches that stream.
  auto pipe = std::make_shared<Pipe>(4);
  auto seq = std::make_shared<SequenceInputStream>(
      std::make_shared<LocalInputStream>(pipe));
  std::promise<void> woke;
  std::jthread reader{[&] {
    try {
      seq->read();
    } catch (const IoError&) {
    }
    woke.set_value();
  }};
  while (pipe->blocked_readers() == 0) std::this_thread::yield();
  seq->close();
  ASSERT_EQ(woke.get_future().wait_for(std::chrono::seconds{5}),
            std::future_status::ready);
  EXPECT_TRUE(pipe->read_closed());
  EXPECT_THROW(seq->read(), IoError);
}

TEST(SequenceInput, AppendRacingReaderLosesNothing) {
  // Segment k+1 is spliced in before segment k ends (the reconfiguration
  // ordering), while the reader drains and advances concurrently.
  constexpr int kSegments = 2000;
  SplitMix64 rng{7};
  std::vector<ByteVector> chunks(kSegments);
  ByteVector expected;
  for (auto& chunk : chunks) {
    chunk.resize(1 + rng.next() % 64);
    for (auto& b : chunk) b = static_cast<std::uint8_t>(rng.next());
    expected.insert(expected.end(), chunk.begin(), chunk.end());
  }
  std::vector<std::shared_ptr<Pipe>> pipes;
  for (int k = 0; k < kSegments; ++k) pipes.push_back(std::make_shared<Pipe>(32));
  auto seq = std::make_shared<SequenceInputStream>(
      std::make_shared<LocalInputStream>(pipes[0]));
  std::jthread appender{[&] {
    for (int k = 0; k < kSegments; ++k) {
      if (k + 1 < kSegments) {
        seq->append(std::make_shared<LocalInputStream>(pipes[k + 1]));
      }
      pipes[k]->write({chunks[k].data(), chunks[k].size()});
      pipes[k]->close_write();
    }
  }};
  ByteVector got;
  ByteVector buffer(48);
  while (const std::size_t n = seq->read_some({buffer.data(), buffer.size()})) {
    got.insert(got.end(), buffer.begin(),
               buffer.begin() + static_cast<std::ptrdiff_t>(n));
  }
  EXPECT_EQ(got, expected);
  EXPECT_TRUE(seq->finished());
  EXPECT_EQ(seq->pending(), 0u);
}

/// Closes `pipe`'s read end unless `done` is set within 5 s: a writer a
/// cut failed to stop, still parked on the pipe, then fails its write
/// instead of hanging the test.
void rescue_parked_writer(Pipe& pipe, const std::atomic<bool>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds{5};
  while (!done.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
  if (!done.load()) pipe.close_read();
}

ByteVector counting_bytes(std::size_t n) {
  ByteVector bytes(n);
  std::iota(bytes.begin(), bytes.end(), std::uint8_t{0});
  return bytes;
}

TEST(SequenceOutput, CutStopsTheParkedWriterOnThreads) {
  // The writer parks inside its segment, a 2-byte pipe that nothing
  // drains, for 200 ms without spinning.  The switch returns without
  // waiting for it: the stop wakes the writer, which finishes the write
  // on the successor.  The two pipes hold exactly the history.
  auto old_pipe = std::make_shared<Pipe>(2);
  auto next_pipe = std::make_shared<Pipe>(1024);
  auto seq = std::make_shared<SequenceOutputStream>(
      std::make_shared<LocalOutputStream>(old_pipe));
  const ByteVector history = counting_bytes(64);
  std::atomic<bool> done{false};
  std::jthread writer{[&] {
    try {
      seq->write({history.data(), history.size()});
      done.store(true);
    } catch (const IoError&) {
    }
  }};
  std::jthread rescue{[&] { rescue_parked_writer(*old_pipe, done); }};
  while (old_pipe->blocked_writers() == 0) std::this_thread::yield();
  const double cpu_before = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds{200});
  EXPECT_LT(process_cpu_seconds() - cpu_before, 0.05)
      << "the parked writer spun";

  auto cut = std::async(std::launch::async, [&] {
    seq->switch_to(std::make_shared<LocalOutputStream>(next_pipe), false);
  });
  ASSERT_EQ(cut.wait_for(std::chrono::seconds{5}), std::future_status::ready)
      << "the cut waited for the write in flight";
  writer.join();
  ASSERT_TRUE(done.load()) << "the stopped writer did not resume";
  ByteVector got = old_pipe->steal_buffer();
  EXPECT_EQ(got.size(), 2u);
  const ByteVector rest = next_pipe->steal_buffer();
  got.insert(got.end(), rest.begin(), rest.end());
  EXPECT_EQ(got, history);
}

TEST(SequenceOutput, CutStopsTheParkedWriterOnTheOnlyWorker) {
  // One M:N worker runs the writer, parked on a full pipe, and then the
  // cut.  The cut neither waits nor spins: it stops the pipe and returns,
  // and the worker resumes the writer, which finishes on the successor.
  auto old_pipe = std::make_shared<Pipe>(2);
  auto next_pipe = std::make_shared<Pipe>(1024);
  auto seq = std::make_shared<SequenceOutputStream>(
      std::make_shared<LocalOutputStream>(old_pipe));
  const ByteVector history = counting_bytes(72);
  std::atomic<bool> done{false};
  sched::Scheduler scheduler{
      {.mode = sched::SchedMode::kWorkSteal, .workers = 1}};
  scheduler.spawn([&] {
    try {
      seq->write({history.data(), 64});
      seq->write({history.data() + 64, 8});  // on the successor from the start
      done.store(true);
    } catch (const IoError&) {
    }
  });
  std::jthread rescue{[&] { rescue_parked_writer(*old_pipe, done); }};
  while (old_pipe->blocked_writers() == 0) std::this_thread::yield();
  const double cpu_before = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds{200});
  scheduler.spawn([&] {
    seq->switch_to(std::make_shared<LocalOutputStream>(next_pipe), false);
  });
  scheduler.wait_quiescent();
  EXPECT_LT(process_cpu_seconds() - cpu_before, 0.05)
      << "the parked writer or the cut spun";
  ASSERT_TRUE(done.load()) << "the stopped writer did not resume";
  ByteVector got = old_pipe->steal_buffer();
  EXPECT_EQ(got.size(), 2u);
  const ByteVector rest = next_pipe->steal_buffer();
  got.insert(got.end(), rest.begin(), rest.end());
  EXPECT_EQ(got, history);
}

TEST(SequenceOutput, CloseStopsTheParkedWriter) {
  // close() from another thread is a cut with no successor: the parked
  // write fails with IoError, and the pipe ends after its bytes.
  auto pipe = std::make_shared<Pipe>(2);
  auto seq = std::make_shared<SequenceOutputStream>(
      std::make_shared<LocalOutputStream>(pipe));
  const ByteVector history = counting_bytes(64);
  std::promise<bool> failed;
  std::atomic<bool> done{false};
  std::jthread writer{[&] {
    try {
      seq->write({history.data(), history.size()});
      failed.set_value(false);
    } catch (const WriteStopped&) {
      failed.set_value(false);  // the sequence's own IoError, not this
    } catch (const IoError&) {
      failed.set_value(true);
    }
    done.store(true);
  }};
  std::jthread rescue{[&] { rescue_parked_writer(*pipe, done); }};
  while (pipe->blocked_writers() == 0) std::this_thread::yield();
  seq->close();
  auto result = failed.get_future();
  ASSERT_EQ(result.wait_for(std::chrono::seconds{5}),
            std::future_status::ready);
  EXPECT_TRUE(result.get());
  EXPECT_TRUE(pipe->write_closed());
  LocalInputStream reader{pipe};
  ByteVector out(2);
  EXPECT_EQ(reader.read_some({out.data(), 2}), 2u);
  EXPECT_EQ(reader.read(), -1);
}

// --- Data streams -----------------------------------------------------------

TEST(DataStreams, PrimitivesRoundTrip) {
  auto sink = std::make_shared<MemoryOutputStream>();
  DataOutputStream out{*sink};
  out.write_bool(true);
  out.write_u8(0xab);
  out.write_i16(-1234);
  out.write_i32(-123456789);
  out.write_i64(-1234567890123456789LL);
  out.write_u64(0xfedcba9876543210ULL);
  out.write_f32(1.5f);
  out.write_f64(-2.25e-100);
  out.write_string("kahn");

  MemoryInputStream source{sink->take()};
  DataInputStream in{source};
  EXPECT_TRUE(in.read_bool());
  EXPECT_EQ(in.read_u8(), 0xab);
  EXPECT_EQ(in.read_i16(), -1234);
  EXPECT_EQ(in.read_i32(), -123456789);
  EXPECT_EQ(in.read_i64(), -1234567890123456789LL);
  EXPECT_EQ(in.read_u64(), 0xfedcba9876543210ULL);
  EXPECT_EQ(in.read_f32(), 1.5f);
  EXPECT_EQ(in.read_f64(), -2.25e-100);
  EXPECT_EQ(in.read_string(), "kahn");
}

TEST(DataStreams, ReadPastEndThrows) {
  MemoryInputStream source{bytes_of({1})};
  DataInputStream in{source};
  EXPECT_THROW(in.read_u32(), EndOfStream);
}

class VarintRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VarintRoundTrip, Value) {
  auto sink = std::make_shared<MemoryOutputStream>();
  DataOutputStream out{*sink};
  out.write_varint(GetParam());
  MemoryInputStream source{sink->take()};
  DataInputStream in{source};
  EXPECT_EQ(in.read_varint(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Values, VarintRoundTrip,
    ::testing::Values(0ULL, 1ULL, 127ULL, 128ULL, 300ULL, 16383ULL, 16384ULL,
                      (1ULL << 32), ~0ULL, (~0ULL) - 1));

TEST(DataStreams, BytesBlobRoundTrip) {
  auto sink = std::make_shared<MemoryOutputStream>();
  DataOutputStream out{*sink};
  Xoshiro256 rng{5};
  ByteVector blob(1000);
  for (auto& b : blob) b = static_cast<std::uint8_t>(rng.next());
  out.write_bytes({blob.data(), blob.size()});
  out.write_bytes({});  // empty blob is legal
  MemoryInputStream source{sink->take()};
  DataInputStream in{source};
  EXPECT_EQ(in.read_bytes(), blob);
  EXPECT_TRUE(in.read_bytes().empty());
}

TEST(DataStreams, OverChannelPipe) {
  auto pipe = std::make_shared<Pipe>(8);  // smaller than one i64 burst
  LocalOutputStream sink{pipe};
  LocalInputStream source{pipe};
  DataOutputStream out{sink};
  DataInputStream in{source};
  std::jthread writer{[&] {
    for (std::int64_t i = 0; i < 100; ++i) out.write_i64(i * i);
    out.close();
  }};
  for (std::int64_t i = 0; i < 100; ++i) EXPECT_EQ(in.read_i64(), i * i);
  EXPECT_THROW(in.read_i64(), EndOfStream);
}

}  // namespace
}  // namespace dpn::io
