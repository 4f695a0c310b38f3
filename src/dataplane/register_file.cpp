#include "dataplane/register_file.hpp"

#include <cassert>

namespace p4auth::dataplane {

RegisterArray::RegisterArray(std::string name, RegisterId id, std::size_t size, int width_bits)
    : name_(std::move(name)),
      id_(id),
      width_bits_(width_bits),
      mask_(width_bits >= 64 ? ~0ull : ((1ull << width_bits) - 1)),
      cells_(size, 0) {
  assert(size > 0);
  assert(width_bits >= 1 && width_bits <= 64);
}

Error RegisterArray::out_of_range(const char* op) const {
  return make_error("register '" + name_ + "': " + op + " index out of range");
}

void RegisterArray::fill(std::uint64_t value) {
  ++writes_;
  for (auto& cell : cells_) cell = value & mask_;
}

Result<RegisterArray*> RegisterFile::create(std::string name, RegisterId id, std::size_t size,
                                            int width_bits) {
  if (by_name_.contains(name)) return make_error("register name taken: " + name);
  if (by_id_.contains(id)) return make_error("register id taken");
  auto array = std::make_unique<RegisterArray>(name, id, size, width_bits);
  RegisterArray* raw = array.get();
  arrays_.push_back(std::move(array));
  by_name_.emplace(std::move(name), raw);
  by_id_.emplace(id, raw);
  return raw;
}

RegisterArray* RegisterFile::by_name(std::string_view name) noexcept {
  const auto it = by_name_.find(std::string(name));
  return it == by_name_.end() ? nullptr : it->second;
}

RegisterArray* RegisterFile::by_id(RegisterId id) noexcept {
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

const RegisterArray* RegisterFile::by_id(RegisterId id) const noexcept {
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

std::size_t RegisterFile::total_bits() const noexcept {
  std::size_t bits = 0;
  for (const auto& a : arrays_) bits += a->total_bits();
  return bits;
}

}  // namespace p4auth::dataplane
