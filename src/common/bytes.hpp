// Byte-buffer primitives: network-order (big-endian) writers and the
// reader used by the P4Auth wire codec and the simulated packet payloads.
// Writers trust the caller's sizing; the reader is bounds-safe on its own
// and reports a short frame through one sticky flag, so a decoder pays one
// length check per frame section instead of one error per field.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace p4auth {

using Bytes = std::vector<std::uint8_t>;

/// Borrowed view of a byte buffer. Implicitly constructible from Bytes,
/// std::array<std::uint8_t, N>, and C arrays, so hot-path callers can
/// pass stack scratch keys without materialising a heap Bytes.
using ByteView = std::span<const std::uint8_t>;

/// Appends fixed-width integers to a Bytes buffer in network byte order.
/// The writer never fails; it grows the underlying buffer as needed.
class ByteWriter {
 public:
  explicit ByteWriter(Bytes& out) : out_(out) {}

  ByteWriter& u8(std::uint8_t v);
  ByteWriter& u16(std::uint16_t v);
  ByteWriter& u32(std::uint32_t v);
  ByteWriter& u64(std::uint64_t v);
  ByteWriter& raw(std::span<const std::uint8_t> data);

  std::size_t written() const noexcept { return out_.size(); }

 private:
  Bytes& out_;
};

/// ByteWriter-compatible writer into caller-sized storage: a fixed
/// scratch array, or a buffer resized once to the exact output size. Hot
/// paths use it where growing a vector byte by byte would reallocate.
/// The caller guarantees capacity; nothing is bounds-checked.
class ScratchWriter {
 public:
  explicit ScratchWriter(std::uint8_t* out) noexcept : begin_(out), p_(out) {}

  ScratchWriter& u8(std::uint8_t v) noexcept {
    *p_++ = v;
    return *this;
  }
  ScratchWriter& u16(std::uint16_t v) noexcept {
    return u8(static_cast<std::uint8_t>(v >> 8)).u8(static_cast<std::uint8_t>(v));
  }
  ScratchWriter& u32(std::uint32_t v) noexcept {
    for (int shift = 24; shift >= 0; shift -= 8) u8(static_cast<std::uint8_t>(v >> shift));
    return *this;
  }
  ScratchWriter& u64(std::uint64_t v) noexcept {
    for (int shift = 56; shift >= 0; shift -= 8) u8(static_cast<std::uint8_t>(v >> shift));
    return *this;
  }

  std::size_t written() const noexcept { return static_cast<std::size_t>(p_ - begin_); }

 private:
  std::uint8_t* begin_;
  std::uint8_t* p_;
};

/// Reads fixed-width integers from a byte span in network byte order;
/// the mirror of ScratchWriter. A decoder checks remaining() once for a
/// fixed-size section and then reads plain values, with no per-field
/// error to unwrap. Bounds safety does not rest on that check: a read
/// past the end returns 0 (view(): an empty span), consumes nothing and
/// latches failed(), which stays set for the reader's lifetime. No read
/// ever touches memory outside the span, and a frame's nonzero magic byte
/// compared with u8() also turns away the empty frame.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept : data_(data) {}

  std::uint8_t u8() noexcept { return static_cast<std::uint8_t>(take(1)); }
  std::uint16_t u16() noexcept { return static_cast<std::uint16_t>(take(2)); }
  std::uint32_t u32() noexcept { return static_cast<std::uint32_t>(take(4)); }
  std::uint64_t u64() noexcept { return take(8); }

  /// The next `n` bytes as a view into the source buffer, no copy. The
  /// span is only valid while the source buffer outlives the parse.
  std::span<const std::uint8_t> view(std::size_t n) noexcept {
    if (remaining() < n) {
      failed_ = true;
      return {};
    }
    const auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  /// True once any read has run past the end.
  bool failed() const noexcept { return failed_; }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool exhausted() const noexcept { return pos_ == data_.size(); }

 private:
  std::uint64_t take(std::size_t n) noexcept {
    if (remaining() < n) {
      failed_ = true;
      return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += n;
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

/// Hex rendering for logs and test diagnostics, e.g. "de:ad:be:ef".
std::string to_hex(std::span<const std::uint8_t> data);

}  // namespace p4auth
