#include "image/codec.hpp"

#include "io/data.hpp"
#include "io/memory.hpp"

namespace dpn::image {

namespace {

constexpr std::uint8_t kModeRaw = 0;
constexpr std::uint8_t kModeRle = 1;
constexpr std::uint8_t kModeNibble = 2;
constexpr std::uint32_t kArchiveMagic = 0x44504e49;  // "DPNI"

/// Nibble coding of a residual byte: values 0..7 code themselves, values
/// 248..255 (i.e. -8..-1 mod 256) code as 8..15.  Returns 16 when the
/// residual is out of range (nibble mode not applicable).
int nibble_code(std::uint8_t residual) {
  if (residual <= 7) return residual;
  if (residual >= 248) return residual - 240;
  return 16;
}

std::uint8_t nibble_decode(int code) {
  return code <= 7 ? static_cast<std::uint8_t>(code)
                   : static_cast<std::uint8_t>(code + 240);
}

/// Predicted residual for pixel (x, y): left neighbour, or the pixel
/// above for the first column, or 128 for the first pixel.  All byte
/// arithmetic is mod 256, so prediction is exactly invertible.
std::uint8_t prediction(const std::uint8_t* pixels, std::size_t width,
                        std::size_t x, std::size_t y) {
  if (x > 0) return pixels[y * width + x - 1];
  if (y > 0) return pixels[(y - 1) * width + x];
  return 128;
}

}  // namespace

ByteVector compress_block(ByteSpan pixels, std::size_t width,
                          std::size_t height) {
  if (width == 0 || height == 0 || width > 255 || height > 255 ||
      pixels.size() != width * height) {
    throw UsageError{"compress_block: bad dimensions"};
  }

  // Residuals after prediction.  The first pixel travels raw in modes
  // 1/2 (its "prediction" would be an arbitrary constant, and one large
  // residual must not disqualify nibble packing).
  ByteVector residuals;
  residuals.reserve(pixels.size() - 1);
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      if (x == 0 && y == 0) continue;
      const std::size_t i = y * width + x;
      residuals.push_back(static_cast<std::uint8_t>(
          pixels[i] - prediction(pixels.data(), width, x, y)));
    }
  }

  // Zero-run-length encode.
  ByteVector rle;
  rle.reserve(residuals.size());
  for (std::size_t i = 0; i < residuals.size();) {
    if (residuals[i] == 0) {
      std::size_t run = 1;
      while (i + run < residuals.size() && residuals[i + run] == 0 &&
             run < 255) {
        ++run;
      }
      rle.push_back(0x00);
      rle.push_back(static_cast<std::uint8_t>(run));
      i += run;
    } else {
      rle.push_back(residuals[i]);
      ++i;
    }
  }

  // Nibble packing, applicable when every residual is small (gradients).
  ByteVector nibbles;
  bool nibble_ok = true;
  {
    int pending = -1;
    for (const std::uint8_t residual : residuals) {
      const int code = nibble_code(residual);
      if (code == 16) {
        nibble_ok = false;
        break;
      }
      if (pending < 0) {
        pending = code;
      } else {
        nibbles.push_back(
            static_cast<std::uint8_t>(pending | (code << 4)));
        pending = -1;
      }
    }
    if (nibble_ok && pending >= 0) {
      nibbles.push_back(static_cast<std::uint8_t>(pending));
    }
  }

  // Pick the smallest representation; raw is the incompressible fallback.
  // Modes 1/2 pay one extra byte for the raw first pixel.
  std::uint8_t mode = kModeRaw;
  const ByteVector* payload = nullptr;
  const std::size_t rle_total = 1 + rle.size();
  const std::size_t nibble_total = nibble_ok ? 1 + nibbles.size() : ~0u;
  if (nibble_ok && nibble_total < pixels.size() &&
      nibble_total <= rle_total) {
    mode = kModeNibble;
    payload = &nibbles;
  } else if (rle_total < pixels.size()) {
    mode = kModeRle;
    payload = &rle;
  }

  ByteVector out;
  out.push_back(mode);
  out.push_back(static_cast<std::uint8_t>(width));
  out.push_back(static_cast<std::uint8_t>(height));
  if (mode == kModeRaw) {
    out.insert(out.end(), pixels.begin(), pixels.end());
  } else {
    out.push_back(pixels[0]);
    out.insert(out.end(), payload->begin(), payload->end());
  }
  return out;
}

ByteVector decompress_block(ByteSpan compressed, std::size_t* width_out,
                            std::size_t* height_out) {
  if (compressed.size() < 3) {
    throw SerializationError{"block too short"};
  }
  const std::uint8_t mode = compressed[0];
  const std::size_t width = compressed[1];
  const std::size_t height = compressed[2];
  if (width == 0 || height == 0) {
    throw SerializationError{"block with empty dimensions"};
  }
  const std::size_t count = width * height;
  ByteSpan payload = compressed.subspan(3);

  ByteVector pixels;
  if (mode == kModeRaw) {
    if (payload.size() != count) {
      throw SerializationError{"raw block payload size mismatch"};
    }
    pixels.assign(payload.begin(), payload.end());
  } else if (mode == kModeRle || mode == kModeNibble) {
    if (payload.empty()) {
      throw SerializationError{"predicted block missing its first pixel"};
    }
    const std::uint8_t first_pixel = payload[0];
    const ByteSpan body = payload.subspan(1);
    const std::size_t n_residuals = count - 1;

    ByteVector residuals;
    residuals.reserve(n_residuals);
    if (mode == kModeRle) {
      for (std::size_t i = 0; i < body.size();) {
        const std::uint8_t token = body[i++];
        if (token == 0x00) {
          if (i >= body.size()) {
            throw SerializationError{"truncated zero run"};
          }
          const std::uint8_t run = body[i++];
          if (run == 0) throw SerializationError{"zero-length run"};
          residuals.insert(residuals.end(), run, 0);
        } else {
          residuals.push_back(token);
        }
      }
    } else {
      if (body.size() != (n_residuals + 1) / 2) {
        throw SerializationError{"nibble block payload size mismatch"};
      }
      for (std::size_t i = 0; i < n_residuals; ++i) {
        const std::uint8_t byte = body[i / 2];
        const int code = (i % 2 == 0) ? (byte & 0x0f) : (byte >> 4);
        residuals.push_back(nibble_decode(code));
      }
    }
    if (residuals.size() != n_residuals) {
      throw SerializationError{"block residual count mismatch"};
    }

    pixels.resize(count);
    pixels[0] = first_pixel;
    std::size_t r = 0;
    for (std::size_t y = 0; y < height; ++y) {
      for (std::size_t x = 0; x < width; ++x) {
        if (x == 0 && y == 0) continue;
        const std::size_t i = y * width + x;
        pixels[i] = static_cast<std::uint8_t>(
            residuals[r++] + prediction(pixels.data(), width, x, y));
      }
    }
  } else {
    throw SerializationError{"unknown block mode"};
  }
  if (width_out != nullptr) *width_out = width;
  if (height_out != nullptr) *height_out = height;
  return pixels;
}

ByteVector assemble_archive(const Image& img, std::size_t block_size,
                            const std::vector<ByteVector>& blocks) {
  io::MemoryOutputStream sink;
  io::DataOutputStream out{sink};
  out.write_u32(kArchiveMagic);
  out.write_varint(img.width());
  out.write_varint(img.height());
  out.write_varint(block_size);
  out.write_varint(blocks.size());
  for (const ByteVector& block : blocks) {
    out.write_bytes({block.data(), block.size()});
  }
  return sink.take();
}

ByteVector compress_image(const Image& img, std::size_t block_size) {
  const auto grid = block_grid(img, block_size);
  std::vector<ByteVector> blocks;
  blocks.reserve(grid.size());
  for (const BlockRect& rect : grid) {
    const ByteVector pixels = extract_block(img, rect);
    blocks.push_back(
        compress_block({pixels.data(), pixels.size()}, rect.width,
                       rect.height));
  }
  return assemble_archive(img, block_size, blocks);
}

Image decompress_image(ByteSpan archive) {
  io::MemoryInputStream source{ByteVector{archive.begin(), archive.end()}};
  io::DataInputStream in{source};
  if (in.read_u32() != kArchiveMagic) {
    throw SerializationError{"not a dpn image archive"};
  }
  const auto width = static_cast<std::size_t>(in.read_varint());
  const auto height = static_cast<std::size_t>(in.read_varint());
  const auto block_size = static_cast<std::size_t>(in.read_varint());
  const std::uint64_t block_count = in.read_varint();

  Image img{width, height};
  const auto grid = block_grid(img, block_size);
  if (grid.size() != block_count) {
    throw SerializationError{"archive block count does not match grid"};
  }
  for (const BlockRect& rect : grid) {
    const ByteVector compressed = in.read_bytes();
    std::size_t w = 0, h = 0;
    const ByteVector pixels =
        decompress_block({compressed.data(), compressed.size()}, &w, &h);
    if (w != rect.width || h != rect.height) {
      throw SerializationError{"archive block has wrong dimensions"};
    }
    insert_block(img, rect, {pixels.data(), pixels.size()});
  }
  return img;
}

}  // namespace dpn::image
