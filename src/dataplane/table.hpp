// Match-action tables in the three PISA match kinds: exact (SRAM + hash
// unit), LPM and ternary (TCAM). Actions are an id plus a 64-bit action
// data word — enough for "set egress port", "read register reg1", etc.
//
// Tables carry a declared `capacity` (what the compiler would size the
// physical table to), which the resource model charges, independent of
// how many entries are currently installed.
//
// These are the fast-path implementations: a hardware target resolves
// every match kind in O(1) pipeline stages, and the software engine
// approximates that — flat-hash exact lookup, populated-length-bitmap
// LPM, mask-grouped ternary — with allocation-free steady-state lookups.
// The original structures survive as reference_table.hpp (library
// p4auth_reference_tables, outside p4auth_dataplane), which the
// differential test and bench/micro_tables drive against these.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "dataplane/flat_hash.hpp"

namespace p4auth::dataplane {

enum class MatchKind : std::uint8_t { Exact, Lpm, Ternary };

struct Action {
  int action_id = 0;
  std::uint64_t data = 0;
  friend bool operator==(const Action&, const Action&) = default;
};

/// Common declared shape, consumed by the resource model.
struct TableShape {
  std::string name;
  MatchKind match_kind = MatchKind::Exact;
  int key_bits = 0;
  int action_bits = 64;
  std::size_t capacity = 0;

  friend bool operator==(const TableShape&, const TableShape&) = default;
};

/// Exact-match table keyed on raw bytes: open-addressing flat hash with
/// power-of-two buckets, linear probing over a 64-bit byte hash, and
/// backward-shift deletion (no tombstones). Lookup/erase take a ByteView
/// so callers can probe with stack scratch keys — no Bytes allocation on
/// the packet path; the stored key copy happens on insert only.
class ExactTable {
 public:
  ExactTable(std::string name, int key_bits, std::size_t capacity);

  const TableShape& shape() const noexcept { return shape_; }

  /// Fails when the table is at declared capacity (mirrors a real target
  /// rejecting inserts into a full table) or the key is wider than the
  /// declared key_bits (the width the resource model charges for).
  Status insert(ByteView key, Action action);
  bool erase(ByteView key);
  std::optional<Action> lookup(ByteView key) const noexcept;
  std::size_t size() const noexcept { return size_; }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    Bytes key;
    Action action;
    bool used = false;
  };

  std::size_t probe(ByteView key, std::uint64_t hash) const noexcept;
  void grow();

  TableShape shape_;
  std::vector<Slot> slots_;  // power-of-two; empty until first insert
  std::size_t size_ = 0;
};

/// Longest-prefix-match table over 32-bit keys (IPv4-style routing).
/// All prefix lengths share one flat-hash arena (bucket = length), plus
/// a 33-bit bitmap of populated lengths: lookup probes only lengths that
/// actually hold entries (a handful in real route tables) instead of all
/// 33, and every probe hits the same two flat arrays. The bitmap is the
/// source of truth; lookup walks a dense descending-length list derived
/// from it on insert, so iterations are independent (no serial
/// clear-the-top-bit dependency chain between probes).
class LpmTable {
 public:
  LpmTable(std::string name, std::size_t capacity);

  const TableShape& shape() const noexcept { return shape_; }

  /// Precondition: 0 <= prefix_len <= 32; bits of `prefix` below the
  /// prefix length are ignored. A rejected insert leaves the table
  /// untouched.
  Status insert(std::uint32_t prefix, int prefix_len, Action action);
  std::optional<Action> lookup(std::uint32_t key) const noexcept;
  std::size_t size() const noexcept { return entries_.size(); }

 private:
  TableShape shape_;
  BucketedFlatHash<Action> entries_;  // bucket = prefix length, key = masked prefix
  std::uint64_t populated_ = 0;       // bit L set <=> length L holds entries
  // Dense walk arrays derived from the bitmap, indexed together.
  std::vector<std::uint32_t> lengths_;       // populated lengths, descending
  std::vector<std::uint32_t> length_masks_;  // lengths_[i]'s prefix mask
  std::vector<std::uint64_t> length_seeds_;  // lengths_[i]'s bucket seed
};

/// Ternary table over 64-bit keys with value/mask entries and priorities
/// (highest priority wins; ties broken by insertion order). Entries are
/// grouped by distinct mask into flat-hash maps keyed on the masked
/// value; lookup scans groups in descending max-priority order with
/// early exit, so the per-packet cost is O(distinct masks) — a small
/// constant for ACL-style tables — instead of O(entries).
class TernaryTable {
 public:
  TernaryTable(std::string name, int key_bits, std::size_t capacity);

  const TableShape& shape() const noexcept { return shape_; }

  /// Rejects value/mask bits above the declared key_bits, and inserts
  /// at declared capacity.
  Status insert(std::uint64_t value, std::uint64_t mask, int priority, Action action);
  std::optional<Action> lookup(std::uint64_t key) const noexcept;
  std::size_t size() const noexcept { return size_; }

 private:
  struct Entry {
    int priority = 0;
    std::uint64_t seq = 0;  // global insertion order, for priority ties
    Action action;
  };

  void rebuild_scan_order();

  TableShape shape_;
  std::vector<std::uint64_t> masks_;  // group id -> distinct mask
  std::vector<int> max_priority_;     // group id -> max priority in group
  // Scan-ordered copies (descending max_priority): lookup iterates these
  // three dense arrays sequentially instead of indexing masks_ /
  // max_priority_ through a permutation, keeping the probe loop's loads
  // streaming. Rebuilt on insert (control path).
  std::vector<std::uint32_t> scan_groups_;
  std::vector<std::uint64_t> scan_masks_;
  std::vector<std::uint64_t> scan_seeds_;  // scan_groups_[i]'s bucket seed
  std::vector<int> scan_max_priority_;
  BucketedFlatHash<Entry> entries_;  // bucket = group id, key = masked value
  std::size_t size_ = 0;             // every accepted insert, incl. shadowed
  std::uint64_t next_seq_ = 0;
};

}  // namespace p4auth::dataplane
