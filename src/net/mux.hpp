#pragma once

#include <cstdint>

#include "net/transport.hpp"

/// The transport: the one implementation of net::Transport.
///
/// All logical streams between one pair of hosts share ONE TCP
/// connection, driven by the per-core edge-triggered EventLoop pool
/// (net/reactor.hpp): each connection is pinned to one loop of the pool
/// at establishment (round-robin), its timers and posts stay
/// loop-local, and separate connections scale across cores instead of
/// serializing behind a single reactor thread.  Connection count is
/// O(host pairs), not O(channels): 50k channels between two nodes cost
/// two descriptors, one per direction of dialing.
///
/// Wire format (docs/PROTOCOLS.md Section 8).  Each side sends a preface
/// immediately after connect:
///
///   preface := magic:u32 'DPNM' version:u8 (= 2)
///
/// then the connection carries frames:
///
///   frame := stream_id:u32 type:u8 length:u32 payload[length]
///
///   OPEN(0)        payload = window:u32 -- dialer opens stream_id; each
///                  side may send `window` bytes before the other grants
///   DATA(1)        payload = stream bytes (counted against the window)
///   DATA_TRACED(2) payload = TraceContext(17B) + stream bytes; the
///                  context bytes are NOT counted against the window
///   CREDIT(3)      payload = bytes:u32 -- receiver consumed, send more
///   FIN(4)         payload = end message (<= 1 KiB, may be empty):
///                  sender finished writing (ordered after its data)
///   RST(5)         sender stopped reading; peer writes fail
///
/// Stream ids are allocated by the dialer only, so the two directions of
/// dialing between a host pair can never collide.  The dialer picks the
/// stream's window (DialOptions::stream_window) for both directions.
/// Credit is granted by the consuming side as it reads, once half the
/// window has been consumed: a blocked sender has the whole window
/// outstanding, so the reader always reaches the threshold, even at a
/// 1-byte window.  A receiver may also grant window beyond consumption
/// (Stream::grant_window), raising its own bound first.
///
/// Fairness and batching: only the connection's loop thread writes the
/// socket.  Each stream direction is a lock-free byte ring with one
/// producer and one consumer, bounded by its credit window.  A stream
/// joins its connection's ready ring once per pending batch: the write
/// that finds it idle marks it ready, and later writes only append to
/// its send ring until the flusher has drained it.  A flush gathers
/// every queued control frame, then one DATA frame
/// (<= NetworkOptions::flush_quantum, encoded straight from the send
/// ring) per ready stream per round-robin turn, up to about 64 KiB, and
/// sends the batch with one write.  One hot stream cannot starve its
/// siblings on the shared connection.  DATA past a stream's receive
/// window kills the connection.
namespace dpn::net {

/// Aggregate counters of the mux backend (all zero when it is unused).
/// Mirrored into NetworkSnapshot so dpn_top can show streams/connection.
struct MuxStats {
  /// Live mux connections (both dialed and accepted).
  std::uint64_t connections = 0;
  /// Logical streams currently open across all connections.
  std::uint64_t streams_active = 0;
  /// Logical streams ever opened.
  std::uint64_t streams_total = 0;
  /// Times a writer blocked with an exhausted per-stream credit window.
  std::uint64_t credit_stalls = 0;
  /// Total nanoseconds spent in those stalls.
  std::uint64_t credit_stall_ns = 0;
  /// Frames of every type put on the wire (not in NetworkSnapshot).
  std::uint64_t frames_sent = 0;
  /// Of those, CREDIT frames.
  std::uint64_t credit_frames_sent = 0;
  /// Socket writes the loop threads made to send them; one flush batches
  /// many frames into one write.
  std::uint64_t socket_writes = 0;
  /// Times a stream joined its connection's ready ring: once per pending
  /// batch, however many writes the batch gathers.
  std::uint64_t ready_marks = 0;
};

MuxStats mux_stats();

/// The process-wide mux Transport singleton (drives its connections on
/// the per-core reactor() pool; default_transport() returns it).
Transport& mux_transport();

}  // namespace dpn::net
