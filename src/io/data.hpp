#pragma once

#include <cstdint>
#include <string>

#include "io/stream.hpp"
#include "support/bytes.hpp"

/// Typed primitives over byte streams, mirroring java.io.DataInputStream /
/// DataOutputStream.  All encodings are big-endian so a channel's byte
/// history is identical across transports and hosts.
///
/// In the paper's architecture this layering happens *inside* a process:
/// channels only ever carry bytes, which is what lets type-agnostic
/// processes (Duplicate, Cons, the splicing machinery) handle any traffic.
///
/// The codec borrows its stream: it holds a reference, not a share of
/// ownership, so wrapping a channel endpoint for one step costs no
/// reference count.  The stream must outlive the codec.  A codec kept
/// longer than the stream's owner (a member, a long-lived pair) stores the
/// owning shared_ptr next to it.
namespace dpn::io {

class DataOutputStream final : public OutputStream {
 public:
  explicit DataOutputStream(OutputStream& out) : out_(&out) {}

  void write(ByteSpan data) override { out_->write(data); }
  void write_byte(std::uint8_t b) override { out_->write_byte(b); }
  void write_vectored(ByteSpan a, ByteSpan b) override {
    out_->write_vectored(a, b);
  }
  void close() override { out_->close(); }

  void write_u8(std::uint8_t v) { out_->write_byte(v); }
  void write_bool(bool v) { write_u8(v ? 1 : 0); }
  void write_u16(std::uint16_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i8(std::int8_t v) { write_u8(static_cast<std::uint8_t>(v)); }
  void write_i16(std::int16_t v) { write_u16(static_cast<std::uint16_t>(v)); }
  void write_i32(std::int32_t v) { write_u32(static_cast<std::uint32_t>(v)); }
  void write_i64(std::int64_t v) { write_u64(static_cast<std::uint64_t>(v)); }
  void write_f32(float v) { write_u32(float_to_bits(v)); }
  void write_f64(double v) { write_u64(double_to_bits(v)); }

  /// Unsigned LEB128.
  void write_varint(std::uint64_t v);

  /// varint length followed by raw bytes.
  void write_bytes(ByteSpan data);
  void write_string(const std::string& s) { write_bytes(as_bytes(s)); }

  OutputStream& underlying() const { return *out_; }

 private:
  OutputStream* out_;
};

class DataInputStream final : public InputStream {
 public:
  explicit DataInputStream(InputStream& in) : in_(&in) {}

  std::size_t read_some(MutableByteSpan out) override {
    return in_->read_some(out);
  }
  int read() override { return in_->read(); }
  void close() override { in_->close(); }

  // All typed reads block until complete and throw EndOfStream if the
  // stream ends mid-value (Kahn's blocking-read rule).
  std::uint8_t read_u8();
  bool read_bool() { return read_u8() != 0; }
  std::uint16_t read_u16();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int8_t read_i8() { return static_cast<std::int8_t>(read_u8()); }
  std::int16_t read_i16() { return static_cast<std::int16_t>(read_u16()); }
  std::int32_t read_i32() { return static_cast<std::int32_t>(read_u32()); }
  std::int64_t read_i64() { return static_cast<std::int64_t>(read_u64()); }
  float read_f32() { return bits_to_float(read_u32()); }
  double read_f64() { return bits_to_double(read_u64()); }

  std::uint64_t read_varint();

  ByteVector read_bytes();
  std::string read_string() { return dpn::to_string(read_bytes()); }

  void read_fully(MutableByteSpan out) { io::read_fully(*in_, out); }

  InputStream& underlying() const { return *in_; }

 private:
  InputStream* in_;
};

}  // namespace dpn::io
