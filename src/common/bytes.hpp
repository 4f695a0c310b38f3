// Byte-buffer primitives: network-order (big-endian) writers/readers used
// by the P4Auth wire codec and the simulated packet payloads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"

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

/// Reads fixed-width integers from a byte span in network byte order.
/// Reads past the end fail with an Error instead of invoking UB.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  Result<std::uint8_t> u8();
  Result<std::uint16_t> u16();
  Result<std::uint32_t> u32();
  Result<std::uint64_t> u64();
  /// Reads exactly `n` bytes; fails if fewer remain.
  Result<Bytes> raw(std::size_t n);
  /// Reads exactly `n` bytes as a view into the source buffer — no copy.
  /// The span is only valid while the source buffer outlives the parse.
  Result<std::span<const std::uint8_t>> view(std::size_t n);

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  std::size_t position() const noexcept { return pos_; }
  bool exhausted() const noexcept { return pos_ == data_.size(); }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Hex rendering for logs and test diagnostics, e.g. "de:ad:be:ef".
std::string to_hex(std::span<const std::uint8_t> data);

}  // namespace p4auth
