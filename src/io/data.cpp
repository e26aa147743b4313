#include "io/data.hpp"

#include <algorithm>

namespace dpn::io {

void DataOutputStream::write_u16(std::uint16_t v) {
  std::uint8_t buf[2];
  put_u16(buf, v);
  out_->write({buf, sizeof buf});
}

void DataOutputStream::write_u32(std::uint32_t v) {
  std::uint8_t buf[4];
  put_u32(buf, v);
  out_->write({buf, sizeof buf});
}

void DataOutputStream::write_u64(std::uint64_t v) {
  std::uint8_t buf[8];
  put_u64(buf, v);
  out_->write({buf, sizeof buf});
}

void DataOutputStream::write_varint(std::uint64_t v) {
  std::uint8_t buf[10];
  std::size_t n = 0;
  while (v >= 0x80) {
    buf[n++] = static_cast<std::uint8_t>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  buf[n++] = static_cast<std::uint8_t>(v);
  out_->write({buf, n});
}

void DataOutputStream::write_bytes(ByteSpan data) {
  // Length prefix and payload travel as one vectored write: one pipe-mutex
  // crossing (or one syscall) per blob instead of two.
  std::uint8_t prefix[10];
  std::size_t n = 0;
  std::uint64_t v = data.size();
  while (v >= 0x80) {
    prefix[n++] = static_cast<std::uint8_t>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  prefix[n++] = static_cast<std::uint8_t>(v);
  out_->write_vectored({prefix, n}, data);
}

std::uint8_t DataInputStream::read_u8() {
  std::uint8_t b = 0;
  io::read_fully(*in_, {&b, 1});
  return b;
}

std::uint16_t DataInputStream::read_u16() {
  std::uint8_t buf[2];
  io::read_fully(*in_, {buf, sizeof buf});
  return get_u16(buf);
}

std::uint32_t DataInputStream::read_u32() {
  std::uint8_t buf[4];
  io::read_fully(*in_, {buf, sizeof buf});
  return get_u32(buf);
}

std::uint64_t DataInputStream::read_u64() {
  std::uint8_t buf[8];
  io::read_fully(*in_, {buf, sizeof buf});
  return get_u64(buf);
}

std::uint64_t DataInputStream::read_varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    const std::uint8_t b = read_u8();
    if (shift >= 64 || (shift == 63 && (b & 0x7e) != 0)) {
      throw SerializationError{"varint overflow"};
    }
    v |= std::uint64_t{static_cast<std::uint8_t>(b & 0x7f)} << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

ByteVector DataInputStream::read_bytes() {
  const std::uint64_t len = read_varint();
  constexpr std::uint64_t kSanityLimit = 1ULL << 31;
  if (len > kSanityLimit) {
    throw SerializationError{"byte blob length " + std::to_string(len) +
                             " exceeds sanity limit"};
  }
  // The length is the sender's claim: grow with the bytes that arrive, one
  // bounded step at a time, so a short hostile blob cannot make us touch
  // the whole limit.  A blob of one step keeps its single allocation.
  constexpr std::size_t kStep = 64 * 1024;
  const auto size = static_cast<std::size_t>(len);
  ByteVector data;
  while (data.size() < size) {
    const std::size_t done = data.size();
    data.resize(done + std::min(size - done, std::max(kStep, done)));
    io::read_fully(*in_, {data.data() + done, data.size() - done});
  }
  return data;
}

}  // namespace dpn::io
