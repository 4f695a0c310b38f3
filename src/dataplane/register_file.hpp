// Stateful register arrays — the switch state P4Auth exists to protect.
//
// A RegisterArray models a P4 `register<bit<W>>(size)`: fixed size, 64-bit
// cells (widths <=64 are stored zero-extended). The RegisterFile is the
// per-switch collection, addressable both by name (data-plane view) and by
// numeric id (controller/p4Info view), mirroring the paper's
// reg_id_to_name_mapping indirection (§VII).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"

namespace p4auth::dataplane {

class RegisterArray {
 public:
  /// Precondition: size > 0, 1 <= width_bits <= 64.
  RegisterArray(std::string name, RegisterId id, std::size_t size, int width_bits);

  const std::string& name() const noexcept { return name_; }
  RegisterId id() const noexcept { return id_; }
  std::size_t size() const noexcept { return cells_.size(); }
  int width_bits() const noexcept { return width_bits_; }
  /// Total storage footprint, used by the resource model.
  std::size_t total_bits() const noexcept { return cells_.size() * static_cast<std::size_t>(width_bits_); }

  /// Out-of-range indices fail (a real target would wrap or trap; failing
  /// loudly surfaces bugs in tests).
  Result<std::uint64_t> read(std::size_t index) const {
    ++reads_;
    if (index >= cells_.size()) return out_of_range("read");
    return cells_[index];
  }
  Status write(std::size_t index, std::uint64_t value) {
    ++writes_;
    if (index >= cells_.size()) return out_of_range("write");
    cells_[index] = value & mask_;
    return {};
  }

  void fill(std::uint64_t value);

  // --- audit instrumentation (src/analysis) -------------------------------
  // Lifetime access counters let the conformance auditor diff *observed*
  // register usage against a program's declared footprint without a
  // shadow copy of the file; the secret tag marks arrays holding key
  // material (K_auth/K_local/K_port) for the secret-flow check.
  std::uint64_t reads() const noexcept { return reads_; }
  std::uint64_t writes() const noexcept { return writes_; }
  std::uint64_t accesses() const noexcept { return reads_ + writes_; }
  bool secret() const noexcept { return secret_; }
  void mark_secret() noexcept { secret_ = true; }

 private:
  /// The error an out-of-range access returns, built off the hot path.
  [[gnu::cold]] Error out_of_range(const char* op) const;

  std::string name_;
  RegisterId id_;
  int width_bits_;
  std::uint64_t mask_;
  std::vector<std::uint64_t> cells_;
  mutable std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  bool secret_ = false;
};

class RegisterFile {
 public:
  /// Creates and registers an array. Fails if the name or id is taken.
  Result<RegisterArray*> create(std::string name, RegisterId id, std::size_t size,
                                int width_bits);

  RegisterArray* by_name(std::string_view name) noexcept;
  RegisterArray* by_id(RegisterId id) noexcept;
  const RegisterArray* by_id(RegisterId id) const noexcept;

  std::size_t count() const noexcept { return arrays_.size(); }
  /// Sum of all arrays' storage, for SRAM accounting.
  std::size_t total_bits() const noexcept;

  /// Iteration support for the resource model.
  const std::vector<std::unique_ptr<RegisterArray>>& arrays() const noexcept { return arrays_; }

 private:
  std::vector<std::unique_ptr<RegisterArray>> arrays_;
  std::unordered_map<std::string, RegisterArray*> by_name_;
  std::unordered_map<RegisterId, RegisterArray*> by_id_;
};

}  // namespace p4auth::dataplane
