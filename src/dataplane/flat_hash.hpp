// Open-addressing hash primitives for the fast-path match-action engine:
// a 64-bit byte hash and a flat (cache-friendly, pointer-free) map for
// integer keys. Both are built for the per-packet lookup path — find()
// never allocates, and probes SwissTable-style control-byte groups with
// branch-free SWAR matching, so a miss costs two well-predicted branches
// instead of a data-dependent probe loop. Growth only happens on insert
// (the control path).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

namespace p4auth::dataplane {

/// Integer hash: single-multiply Fibonacci hashing, taking the product's
/// middle bits so `hash & (buckets - 1)` indexes well even for
/// sequential keys. One multiply + one shift — the per-probe hash cost
/// is what decides whether flat probing beats a linear scan at
/// ACL-table sizes, so this is deliberately as cheap as possible.
constexpr std::uint64_t hash_mix(std::uint64_t x) noexcept {
  return (x * 0x9E3779B97F4A7C15ull) >> 29;
}

/// 64-bit hash over raw key bytes. Keys up to 8 bytes (every key the
/// agent and apps install today) take a fast path: fold into a word with
/// the length, one multiply. Longer keys fall back to FNV-1a. No
/// allocation either way.
inline std::uint64_t hash_bytes(std::span<const std::uint8_t> data) noexcept {
  if (data.size() <= 8) {
    std::uint64_t word = 0;
    for (const std::uint8_t b : data) word = (word << 8) | b;
    return hash_mix(word + (static_cast<std::uint64_t>(data.size()) << 56));
  }
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return hash_mix(h);
}

/// Shared flat-hash arena for (bucket, key) pairs: the LPM table's
/// per-prefix-length buckets and the ternary table's per-mask groups all
/// live in ONE control-byte + slot array, with the bucket id folded into
/// the hash seed. A multi-bucket lookup (probe 5 prefix lengths, probe 8
/// masks) then touches loop-invariant data pointers and dense arrays
/// only — no per-bucket map objects to chase. Control bytes mirror the
/// slot array — 0x80 = empty, else the low 7 bits of the hash — and are
/// scanned eight at a time with SWAR bit tricks, giving branch-free
/// candidate selection. No erase — the LPM/ternary tables only
/// accumulate entries — so probe chains end at the first probe group
/// holding an empty byte and tombstones never exist.
template <typename Value>
class BucketedFlatHash {
 public:
  BucketedFlatHash() = default;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Per-bucket hash seed: buckets draw from independent probe sequences
  /// by xor-ing this into the key before the single hash multiply. Pure
  /// in the bucket id, so multi-bucket callers (LPM length walk, ternary
  /// group scan) precompute seeds into their own dense scan arrays and
  /// stream them into find_seeded — no dependent seed load, no second
  /// multiply on the probe path.
  static constexpr std::uint64_t bucket_seed(std::uint32_t bucket) noexcept {
    std::uint64_t seed = (static_cast<std::uint64_t>(bucket) + 1) * 0xD1B54A32D192ED03ull;
    seed ^= seed >> 31;
    return seed * 0x9E3779B97F4A7C15ull;
  }

  /// Returns the value stored under (bucket, key), or nullptr. Never
  /// allocates. Precondition: seed == bucket_seed(bucket).
  const Value* find_seeded(std::uint64_t seed, std::uint32_t bucket,
                           std::uint64_t key) const noexcept {
    if (size_ == 0) return nullptr;
    const std::uint64_t hash = hash_mix(key ^ seed);
    const std::uint64_t tag = kLsb * (hash & 0x7F);
    std::size_t group = (hash >> 7) & group_mask_;
    for (;;) {
      std::uint64_t ctrl;
      std::memcpy(&ctrl, ctrl_.data() + group * kGroup, sizeof(ctrl));
      // Byte-wise zero detect of (ctrl ^ tag): candidates share the
      // hash's 7-bit tag. False positives (borrow propagation) are
      // filtered by the full (bucket, key) compare.
      const std::uint64_t diff = ctrl ^ tag;
      for (std::uint64_t match = (diff - kLsb) & ~diff & kMsb; match != 0;
           match &= match - 1) {
        const std::size_t idx = group * kGroup + (std::countr_zero(match) >> 3);
        if (slots_[idx].key == key && slots_[idx].bucket == bucket) {
          return &slots_[idx].value;
        }
      }
      if ((ctrl & kMsb) != 0) return nullptr;  // probe group has an empty byte
      group = (group + 1) & group_mask_;
    }
  }

  const Value* find(std::uint32_t bucket, std::uint64_t key) const noexcept {
    return find_seeded(bucket_seed(bucket), bucket, key);
  }

  Value* find(std::uint32_t bucket, std::uint64_t key) noexcept {
    return const_cast<Value*>(std::as_const(*this).find(bucket, key));
  }

  /// Inserts or overwrites; returns true when the (bucket, key) pair is
  /// new.
  bool insert_or_assign(std::uint32_t bucket, std::uint64_t key, Value value) {
    if (Value* existing = find(bucket, key); existing != nullptr) {
      *existing = std::move(value);
      return false;
    }
    if (ctrl_.empty() || (size_ + 1) * 4 > slots_.size() * 3) grow();
    place(Slot{key, bucket, std::move(value)});
    ++size_;
    return true;
  }

 private:
  static constexpr std::size_t kGroup = 8;
  static constexpr std::uint64_t kLsb = 0x0101010101010101ull;
  static constexpr std::uint64_t kMsb = 0x8080808080808080ull;
  static constexpr std::uint8_t kEmpty = 0x80;

  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t bucket = 0;
    Value value{};
  };

  /// Writes into the first empty byte on the pair's probe chain.
  /// Precondition: the pair is absent and a free slot exists.
  void place(Slot slot) {
    const std::uint64_t hash = hash_mix(slot.key ^ bucket_seed(slot.bucket));
    std::size_t group = (hash >> 7) & group_mask_;
    for (;;) {
      const std::uint8_t* ctrl = ctrl_.data() + group * kGroup;
      for (std::size_t i = 0; i < kGroup; ++i) {
        if (ctrl[i] == kEmpty) {
          const std::size_t idx = group * kGroup + i;
          ctrl_[idx] = static_cast<std::uint8_t>(hash & 0x7F);
          slots_[idx] = std::move(slot);
          return;
        }
      }
      group = (group + 1) & group_mask_;
    }
  }

  void grow() {
    const std::size_t groups = ctrl_.empty() ? 2 : (group_mask_ + 1) * 2;
    std::vector<Slot> old = std::move(slots_);
    std::vector<std::uint8_t> old_ctrl = std::move(ctrl_);
    slots_.assign(groups * kGroup, Slot{});
    ctrl_.assign(groups * kGroup, kEmpty);
    group_mask_ = groups - 1;
    for (std::size_t idx = 0; idx < old_ctrl.size(); ++idx) {
      if (old_ctrl[idx] != kEmpty) place(std::move(old[idx]));
    }
  }

  std::vector<std::uint8_t> ctrl_;  // one byte per slot; empty until first insert
  std::vector<Slot> slots_;
  std::size_t group_mask_ = 0;  // probe-group count - 1 (power of two)
  std::size_t size_ = 0;
};

}  // namespace p4auth::dataplane
