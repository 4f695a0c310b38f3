#include "dataplane/table.hpp"

#include <algorithm>
#include <bit>

namespace p4auth::dataplane {

// ---------------------------------------------------------------------------
// ExactTable — open-addressing flat hash over raw byte keys.

ExactTable::ExactTable(std::string name, int key_bits, std::size_t capacity)
    : shape_{std::move(name), MatchKind::Exact, key_bits, 64, capacity} {}

namespace {
bool key_equal(const Bytes& stored, ByteView probe) noexcept {
  return stored.size() == probe.size() &&
         std::equal(stored.begin(), stored.end(), probe.begin());
}
}  // namespace

/// Returns the slot holding `key`, or slots_.size() on miss. Probe chains
/// are tombstone-free (erase backward-shifts), so a chain ends at the
/// first empty slot.
std::size_t ExactTable::probe(ByteView key, std::uint64_t hash) const noexcept {
  if (size_ == 0) return slots_.size();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = hash & mask;
  while (slots_[i].used) {
    if (slots_[i].hash == hash && key_equal(slots_[i].key, key)) return i;
    i = (i + 1) & mask;
  }
  return slots_.size();
}

void ExactTable::grow() {
  const std::size_t next = slots_.empty() ? 16 : slots_.size() * 2;
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(next, Slot{});
  const std::size_t mask = slots_.size() - 1;
  for (auto& slot : old) {
    if (!slot.used) continue;
    std::size_t i = slot.hash & mask;
    while (slots_[i].used) i = (i + 1) & mask;
    slots_[i] = std::move(slot);
  }
}

Status ExactTable::insert(ByteView key, Action action) {
  if (static_cast<int>(key.size()) * 8 > shape_.key_bits) {
    return make_error("table '" + shape_.name + "': key is " +
                      std::to_string(key.size() * 8) + " bits, wider than the declared " +
                      std::to_string(shape_.key_bits));
  }
  const std::uint64_t hash = hash_bytes(key);
  const std::size_t hit = probe(key, hash);
  if (hit != slots_.size()) {
    slots_[hit].action = action;  // overwrite is always allowed
    return {};
  }
  if (size_ >= shape_.capacity) {
    return make_error("table '" + shape_.name + "' full");
  }
  if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) grow();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = hash & mask;
  while (slots_[i].used) i = (i + 1) & mask;
  slots_[i] = Slot{hash, Bytes(key.begin(), key.end()), action, true};
  ++size_;
  return {};
}

bool ExactTable::erase(ByteView key) {
  std::size_t i = probe(key, hash_bytes(key));
  if (i == slots_.size()) return false;
  // Backward-shift deletion: pull each later chain member whose home
  // slot lies at or before the hole back into it, so probe chains stay
  // contiguous without tombstones.
  const std::size_t mask = slots_.size() - 1;
  std::size_t j = i;
  for (;;) {
    slots_[i].used = false;
    slots_[i].key.clear();
    for (;;) {
      j = (j + 1) & mask;
      if (!slots_[j].used) {
        --size_;
        return true;
      }
      const std::size_t home = slots_[j].hash & mask;
      // Movable iff the hole is within j's probe distance from home.
      if (((j - home) & mask) >= ((j - i) & mask)) break;
    }
    slots_[i] = std::move(slots_[j]);
    i = j;
  }
}

std::optional<Action> ExactTable::lookup(ByteView key) const noexcept {
  const std::size_t i = probe(key, hash_bytes(key));
  if (i == slots_.size()) return std::nullopt;
  return slots_[i].action;
}

// ---------------------------------------------------------------------------
// LpmTable — per-length flat-hash buckets + populated-length bitmap.

LpmTable::LpmTable(std::string name, std::size_t capacity)
    : shape_{std::move(name), MatchKind::Lpm, 32, 64, capacity} {}

namespace {
constexpr std::uint32_t lpm_mask(int len) noexcept {
  return len == 0 ? 0u : (0xFFFFFFFFu << (32 - len));
}
}  // namespace

Status LpmTable::insert(std::uint32_t prefix, int prefix_len, Action action) {
  if (prefix_len < 0 || prefix_len > 32) {
    return make_error("table '" + shape_.name + "': bad prefix length");
  }
  const auto len = static_cast<std::uint32_t>(prefix_len);
  const std::uint32_t masked = prefix & lpm_mask(prefix_len);
  if (entries_.size() >= shape_.capacity && entries_.find(len, masked) == nullptr) {
    return make_error("table '" + shape_.name + "' full");
  }
  if (entries_.insert_or_assign(len, masked, action) &&
      (populated_ & (1ull << prefix_len)) == 0) {
    populated_ |= 1ull << prefix_len;
    // Re-derive the dense descending walk list from the bitmap.
    lengths_.clear();
    length_masks_.clear();
    length_seeds_.clear();
    for (std::uint64_t remaining = populated_; remaining != 0;) {
      const int l = 63 - std::countl_zero(remaining);
      remaining &= ~(1ull << l);
      lengths_.push_back(static_cast<std::uint32_t>(l));
      length_masks_.push_back(lpm_mask(l));
      length_seeds_.push_back(entries_.bucket_seed(static_cast<std::uint32_t>(l)));
    }
  }
  return {};
}

std::optional<Action> LpmTable::lookup(std::uint32_t key) const noexcept {
  // Walk populated prefix lengths longest-first; the first hit wins.
  for (std::size_t i = 0; i < lengths_.size(); ++i) {
    const Action* hit =
        entries_.find_seeded(length_seeds_[i], lengths_[i], key & length_masks_[i]);
    if (hit != nullptr) return *hit;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// TernaryTable — per-mask groups scanned in descending max-priority order.

TernaryTable::TernaryTable(std::string name, int key_bits, std::size_t capacity)
    : shape_{std::move(name), MatchKind::Ternary, key_bits, 64, capacity} {}

Status TernaryTable::insert(std::uint64_t value, std::uint64_t mask, int priority,
                            Action action) {
  if (shape_.key_bits < 64) {
    const std::uint64_t legal = (1ull << shape_.key_bits) - 1;
    if (((value | mask) & ~legal) != 0) {
      return make_error("table '" + shape_.name + "': value/mask bits set above the declared " +
                        std::to_string(shape_.key_bits) + "-bit key");
    }
  }
  if (size_ >= shape_.capacity) {
    return make_error("table '" + shape_.name + "' full");
  }
  const auto found = std::find(masks_.begin(), masks_.end(), mask);
  const auto group = static_cast<std::uint32_t>(found - masks_.begin());
  if (found == masks_.end()) {
    masks_.push_back(mask);
    max_priority_.push_back(priority);
  }
  const Entry entry{priority, next_seq_++, action};
  if (Entry* existing = entries_.find(group, value & mask); existing != nullptr) {
    // Duplicate value/mask: the stored entry is the one a linear scan in
    // priority order would return — strictly higher priority replaces,
    // equal or lower stays shadowed (earlier insertion wins ties).
    if (priority > existing->priority) *existing = entry;
  } else {
    entries_.insert_or_assign(group, value & mask, entry);
  }
  max_priority_[group] = std::max(max_priority_[group], priority);
  ++size_;  // shadowed duplicates still occupy capacity, like the TCAM would
  rebuild_scan_order();
  return {};
}

void TernaryTable::rebuild_scan_order() {
  std::vector<std::uint32_t> order(masks_.size());
  for (std::uint32_t g = 0; g < order.size(); ++g) order[g] = g;
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return max_priority_[a] > max_priority_[b];
  });
  scan_groups_.clear();
  scan_masks_.clear();
  scan_seeds_.clear();
  scan_max_priority_.clear();
  for (const std::uint32_t g : order) {
    scan_groups_.push_back(g);
    scan_masks_.push_back(masks_[g]);
    scan_seeds_.push_back(entries_.bucket_seed(g));
    scan_max_priority_.push_back(max_priority_[g]);
  }
}

std::optional<Action> TernaryTable::lookup(std::uint64_t key) const noexcept {
  // Groups are probed a batch at a time: within a batch the probes are
  // independent dependency chains (find_batch), and batches run in
  // descending max_priority order so the scan can stop early once the
  // current best strictly beats everything the next batch can hold.
  // Probing "too far" is harmless — the acceptance comparison below
  // rejects any lower-priority hit on its own (and an equal-priority hit
  // in a later group always has a later seq) — the early exit is purely
  // a shortcut.
  const Entry* best = nullptr;
  const std::size_t n = scan_groups_.size();
  for (std::size_t i = 0; i < n; ++i) {
    // Groups are scanned by descending max_priority: once the current
    // best strictly beats everything a group can hold, no later group
    // can win (ties still need a probe — an equal-priority match with an
    // earlier insertion sequence takes precedence). The acceptance
    // comparison below is what preserves correctness; the break is a
    // shortcut for priority-stratified tables.
    if (best != nullptr && best->priority > scan_max_priority_[i]) break;
    const Entry* hit =
        entries_.find_seeded(scan_seeds_[i], scan_groups_[i], key & scan_masks_[i]);
    if (hit == nullptr) continue;
    if (best == nullptr || hit->priority > best->priority ||
        (hit->priority == best->priority && hit->seq < best->seq)) {
      best = hit;
    }
  }
  if (best == nullptr) return std::nullopt;
  return best->action;
}

}  // namespace p4auth::dataplane
