#include "common/bytes.hpp"

namespace p4auth {

ByteWriter& ByteWriter::u8(std::uint8_t v) {
  out_.push_back(v);
  return *this;
}

ByteWriter& ByteWriter::u16(std::uint16_t v) {
  out_.push_back(static_cast<std::uint8_t>(v >> 8));
  out_.push_back(static_cast<std::uint8_t>(v));
  return *this;
}

ByteWriter& ByteWriter::u32(std::uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    out_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
  return *this;
}

ByteWriter& ByteWriter::u64(std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
  return *this;
}

ByteWriter& ByteWriter::raw(std::span<const std::uint8_t> data) {
  out_.insert(out_.end(), data.begin(), data.end());
  return *this;
}

std::string to_hex(std::span<const std::uint8_t> data) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  // Exact output size: two digits per byte plus a ':' between bytes.
  out.reserve(data.empty() ? 0 : data.size() * 3 - 1);
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i != 0) out.push_back(':');
    out.push_back(kDigits[data[i] >> 4]);
    out.push_back(kDigits[data[i] & 0xF]);
  }
  return out;
}

}  // namespace p4auth
