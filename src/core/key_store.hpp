// Key storage with two-version consistent rollover (§VI-C).
//
// Each key slot (slot 0 = K_local, slot p = K_port for port p, mirroring
// the paper's N+1-entry key register) keeps the current key and the
// previous one. Senders tag messages with the key version they used; the
// receiver validates against that version, so messages in flight across a
// rollover still verify — the consistent-update scheme the paper borrows
// from incremental consistent updates [66].
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "dataplane/register_file.hpp"

namespace p4auth::core {

/// One slot's version chain: current + previous key.
class VersionedKeyChain {
 public:
  bool initialized() const noexcept { return installs_ > 0; }
  KeyVersion current_version() const noexcept {
    return KeyVersion{static_cast<std::uint8_t>(installs_ & 0xFF)};
  }
  std::optional<Key64> current() const noexcept;
  /// Key for an exact version tag: the current version, or the previous
  /// one if still retained. Anything else is unverifiable.
  std::optional<Key64> get(KeyVersion version) const noexcept;
  /// Installs a new key; the old current becomes the retained previous.
  void install(Key64 key) noexcept;
  std::uint32_t installs() const noexcept { return installs_; }

 private:
  Key64 keys_[2] = {0, 0};
  std::uint32_t installs_ = 0;  // version = installs mod 256
};

/// Controller-side mirror of one switch's keys (plain storage).
class MirrorKeyStore {
 public:
  explicit MirrorKeyStore(int num_ports) : slots_(static_cast<std::size_t>(num_ports) + 1) {}

  VersionedKeyChain& slot(PortId port) { return slots_.at(port.value); }
  const VersionedKeyChain& slot(PortId port) const { return slots_.at(port.value); }
  VersionedKeyChain& local() { return slots_[0]; }
  const VersionedKeyChain& local() const { return slots_[0]; }
  int num_ports() const noexcept { return static_cast<int>(slots_.size()) - 1; }

 private:
  std::vector<VersionedKeyChain> slots_;
};

/// Data-plane key store: same semantics, but also materialized into real
/// switch registers ("p4auth_keys_a/b", "p4auth_key_installs") so the
/// paper's SRAM accounting — 64*(M+1) bits of key register — falls out of
/// the register file, and keys demonstrably never leave the data plane.
class DataPlaneKeyStore {
 public:
  /// Creates the backing registers in `registers`. Precondition: the
  /// p4auth key register names are not yet taken.
  DataPlaneKeyStore(dataplane::RegisterFile& registers, int num_ports);

  int num_ports() const noexcept { return num_ports_; }
  bool has_key(PortId slot) const;
  KeyVersion current_version(PortId slot) const;
  std::optional<Key64> current(PortId slot) const;
  std::optional<Key64> get(PortId slot, KeyVersion version) const;
  void install(PortId slot, Key64 key);

  /// The backing arrays, for the agent's pipeline model: the two key
  /// banks (secret) and the install counter.
  const dataplane::RegisterArray& bank_a() const noexcept { return *reg_a_; }
  const dataplane::RegisterArray& bank_b() const noexcept { return *reg_b_; }
  const dataplane::RegisterArray& install_counter() const noexcept { return *reg_installs_; }

 private:
  int num_ports_;
  std::vector<VersionedKeyChain> chains_;
  dataplane::RegisterArray* reg_a_;
  dataplane::RegisterArray* reg_b_;
  dataplane::RegisterArray* reg_installs_;
};

}  // namespace p4auth::core
