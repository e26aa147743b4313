#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/channel.hpp"
#include "core/network.hpp"
#include "io/blocking.hpp"
#include "io/memory.hpp"
#include "io/pipe.hpp"
#include "io/sequence.hpp"
#include "io/stream.hpp"
#include "processes/basic.hpp"

/// Edge cases for the stream stack and channel plumbing that the main io
/// suite does not cover.
namespace dpn::io {
namespace {

TEST(StreamHelpers, PumpMovesEverything) {
  MemoryInputStream in{ByteVector{1, 2, 3, 4, 5, 6, 7}};
  MemoryOutputStream out;
  EXPECT_EQ(pump(in, out, /*chunk_size=*/3), 7u);
  EXPECT_EQ(out.data(), (ByteVector{1, 2, 3, 4, 5, 6, 7}));
}

TEST(StreamHelpers, PumpEmptySourceIsZero) {
  EmptyInputStream in;
  MemoryOutputStream out;
  EXPECT_EQ(pump(in, out), 0u);
}

TEST(StreamHelpers, NullOutputSwallows) {
  NullOutputStream out;
  const ByteVector data(100, 9);
  EXPECT_NO_THROW(out.write({data.data(), data.size()}));
  EXPECT_NO_THROW(out.close());
}

TEST(StreamHelpers, EmptyInputIsAlwaysEof) {
  EmptyInputStream in;
  EXPECT_EQ(in.read(), -1);
  ByteVector buffer(4);
  EXPECT_EQ(in.read_some({buffer.data(), buffer.size()}), 0u);
}

TEST(PipeEdge, GrowNeverShrinks) {
  Pipe pipe{128};
  pipe.grow(64);
  EXPECT_EQ(pipe.capacity(), 128u);
  pipe.grow(256);
  EXPECT_EQ(pipe.capacity(), 256u);
}

TEST(PipeEdge, ZeroLengthOpsAreNoops) {
  Pipe pipe{16};
  ByteVector empty;
  EXPECT_NO_THROW(pipe.write({empty.data(), 0}));
  ByteVector out;
  EXPECT_EQ(pipe.read_some({out.data(), 0}), 0u);
  EXPECT_EQ(pipe.size(), 0u);
}

TEST(PipeEdge, StealFromEmptyIsEmpty) {
  Pipe pipe{16};
  EXPECT_TRUE(pipe.steal_buffer().empty());
}

TEST(PipeEdge, WriteLargerThanCapacityCompletesWithReader) {
  Pipe pipe{4};
  std::jthread reader{[&] {
    ByteVector sink(1024);
    std::size_t total = 0;
    while (total < 100) {
      total += pipe.read_some({sink.data(), sink.size()});
    }
  }};
  const ByteVector big(100, 7);
  EXPECT_NO_THROW(pipe.write({big.data(), big.size()}));
}

TEST(SequenceEdge, PendingCountsQueuedStreams) {
  SequenceInputStream seq;
  EXPECT_EQ(seq.pending(), 0u);
  seq.append(std::make_shared<MemoryInputStream>(ByteVector{1}));
  seq.append(std::make_shared<MemoryInputStream>(ByteVector{2}));
  EXPECT_EQ(seq.pending(), 2u);
  EXPECT_EQ(seq.read(), 1);
  EXPECT_EQ(seq.pending(), 2u);  // current + one queued
  EXPECT_EQ(seq.read(), 2);
  EXPECT_EQ(seq.read(), -1);
  EXPECT_EQ(seq.pending(), 0u);
}

TEST(SequenceEdge, AppendAfterFinishClosesTheLateStream) {
  auto pipe = std::make_shared<Pipe>(8);
  SequenceInputStream seq;  // empty -> immediately finished on first read
  EXPECT_EQ(seq.read(), -1);
  seq.append(std::make_shared<LocalInputStream>(pipe));
  // The late splice was refused and closed: the pipe's writer learns.
  EXPECT_TRUE(pipe->read_closed());
}

TEST(SequenceEdge, OutputSwitchClosingOldDeliversEof) {
  auto pipe = std::make_shared<Pipe>(64);
  SequenceOutputStream seq{std::make_shared<LocalOutputStream>(pipe)};
  const ByteVector data{5, 6};
  seq.write({data.data(), data.size()});
  seq.switch_to(std::make_shared<MemoryOutputStream>(), /*close_old=*/true);
  LocalInputStream reader{pipe};
  ByteVector out(2);
  EXPECT_EQ(reader.read_some({out.data(), 2}), 2u);
  EXPECT_EQ(reader.read(), -1);  // old stream was closed by the switch
}

TEST(BlockingEdge, UnderlyingAccessor) {
  auto inner = std::make_shared<MemoryInputStream>(ByteVector{1});
  BlockingInputStream blocking{inner};
  EXPECT_EQ(blocking.underlying(), inner);
}

TEST(PipeEdge, LiveCutPreservesByteHistory) {
  // A producer races a migration cut (the exact sequence
  // replace_input_endpoint performs: unwedge, switch, steal).  The
  // pre-cut and post-cut transports concatenated must be the producer's
  // byte history, exactly.
  auto pipe = std::make_shared<Pipe>(64);
  auto seq = std::make_shared<SequenceOutputStream>(
      std::make_shared<LocalOutputStream>(pipe));
  SequenceOutputStream& writer = *seq;

  std::atomic<bool> go{false};
  std::atomic<bool> cut_done{false};
  std::jthread producer{[&] {
    for (int i = 0; i < 2000; ++i) {
      const std::uint8_t b = static_cast<std::uint8_t>(i & 0xff);
      writer.write({&b, 1});
      if (i == 16) go.store(true);
    }
    // Writes legitimately race the cut (that is what this test checks),
    // but hold the *close* until the cut is done: once set_unbounded
    // unwedges the producer it can otherwise finish and close the
    // sequence before switch_to runs, a shutdown interleaving the
    // migration path never performs.
    while (!cut_done.load()) std::this_thread::yield();
    writer.close();
  }};
  while (!go.load()) std::this_thread::yield();

  auto after = std::make_shared<MemoryOutputStream>();
  pipe->set_unbounded();  // the producer may be wedged in a pipe write
  seq->switch_to(after, /*close_old=*/false);
  ByteVector history = pipe->steal_buffer();
  cut_done.store(true);
  producer.join();

  const ByteVector tail = after->take();
  history.insert(history.end(), tail.begin(), tail.end());
  ASSERT_EQ(history.size(), 2000u);
  for (std::size_t i = 0; i < history.size(); ++i) {
    ASSERT_EQ(history[i], static_cast<std::uint8_t>(i & 0xff)) << "at " << i;
  }
}

TEST(PipeEdge, StealAfterCloseReadIsEmpty) {
  // close_read releases the stale storage; a later steal (the migration
  // path racing a cascading close) must deterministically see nothing.
  Pipe pipe{16};
  const ByteVector data{1, 2, 3, 4, 5};
  pipe.write({data.data(), data.size()});
  pipe.close_read();
  EXPECT_TRUE(pipe.steal_buffer().empty());
  EXPECT_EQ(pipe.size(), 0u);
  EXPECT_THROW(pipe.write({data.data(), data.size()}), ChannelClosed);
}

TEST(PipeEdge, VectoredWriteIsOneAtomicAppend) {
  Pipe pipe{16};
  const ByteVector a{1, 2, 3}, b{4, 5};
  pipe.write_vectored({a.data(), a.size()}, {b.data(), b.size()});
  EXPECT_EQ(pipe.size(), 5u);
  ByteVector out(5);
  const std::size_t got = pipe.read_some({out.data(), out.size()});
  EXPECT_EQ(got, 5u);
  EXPECT_EQ(out, (ByteVector{1, 2, 3, 4, 5}));
}

TEST(ChannelEdge, LabelAndCapacityVisibleInState) {
  core::Channel channel{512, "my-channel"};
  EXPECT_EQ(channel.state()->label, "my-channel");
  EXPECT_EQ(channel.state()->capacity, 512u);
  EXPECT_EQ(channel.pipe()->capacity(), 512u);
  EXPECT_FALSE(channel.state()->input_remote);
  EXPECT_FALSE(channel.state()->output_remote);
}

TEST(ChannelEdge, WatchDeduplicatesDiscoveredChannels) {
  core::Network network;
  auto channel = network.make_channel({.capacity = 64, .label = "shared"});
  // The same channel is also reachable through the process's endpoints;
  // start() must not double-count its blocked totals.
  network.add(std::make_shared<processes::Sequence>(0, channel->output(), 4));
  auto sink = std::make_shared<processes::CollectSink<std::int64_t>>();
  network.add(std::make_shared<processes::Collect>(channel->input(), sink));
  network.run();
  EXPECT_EQ(sink->size(), 4u);
  // One entry for the channel in the report, not two.
  const std::string report = network.channel_report();
  std::size_t mentions = 0;
  for (std::size_t pos = report.find("shared"); pos != std::string::npos;
       pos = report.find("shared", pos + 1)) {
    ++mentions;
  }
  EXPECT_EQ(mentions, 1u);
}

}  // namespace
}  // namespace dpn::io
