// Label-aware metric registry: counters, gauges, and fixed-bucket
// latency histograms.
//
// Unlike SampleSet (bench-only, retains every sample), Histogram keeps a
// fixed set of log2 buckets so per-packet instrumentation has O(1) cost
// and bounded memory regardless of run length.
//
// Determinism contract: snapshots are serialised in (metric name, label
// string) order via std::map, labels are canonicalised by sorting keys,
// and numbers are emitted with std::to_chars — two runs of the same
// binary that record the same values produce byte-identical JSON.
// std::map also guarantees reference stability, so hot paths may cache
// the Counter/Gauge/Histogram references the registry hands out.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "telemetry/json.hpp"

namespace p4auth::telemetry {

/// Metric labels, e.g. {{"switch", "4"}, {"op", "local_init"}}. Order
/// does not matter; the registry canonicalises by sorting on key.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  std::uint64_t value() const noexcept { return value_; }

  /// Folds another counter in (value addition).
  void merge(const Counter& other) noexcept { value_ += other.value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double delta) noexcept { value_ += delta; }
  double value() const noexcept { return value_; }

  /// Folds another gauge in. Gauges are point-in-time values, so the
  /// merged series sums them: for the per-shard snapshots the campaign
  /// runner merges, each shard's gauge describes that shard's disjoint
  /// slice of the workload and addition is the aggregate reading.
  void merge(const Gauge& other) noexcept { value_ += other.value_; }

 private:
  double value_ = 0;
};

/// Log2-bucket histogram. Bucket 0 holds v < 1; bucket k (k >= 1) holds
/// v in [2^(k-1), 2^k). Observations are clamped to the top bucket.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void observe(double v) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double min() const noexcept { return count_ ? min_ : 0.0; }
  double max() const noexcept { return count_ ? max_ : 0.0; }
  std::uint64_t bucket(int index) const noexcept {
    return buckets_[static_cast<std::size_t>(index)];
  }

  /// Folds another histogram in: buckets add element-wise, count/sum
  /// accumulate, min/max combine. Equivalent (up to floating-point
  /// rounding of `sum`) to having observed both sample streams here.
  void merge(const Histogram& other) noexcept;

  /// Quantile estimate for q in [0, 1] by linear interpolation inside
  /// the log2 bucket holding the target rank. Exact at q=0 (min) and
  /// q=1 (max); interior estimates are clamped to [min, max], which
  /// keeps bucket 0 (v < 1) and the top bucket (clamped at 2^63)
  /// honest. Empty histogram yields 0.
  double percentile(double q) const noexcept;

  /// Index of the bucket `v` falls into.
  static int bucket_index(double v) noexcept;
  /// Exclusive upper bound of bucket `index` (1, 2, 4, ... 2^63).
  static std::uint64_t bucket_upper(int index) noexcept {
    return index <= 0 ? 1ull : 1ull << index;
  }

  void write_json(JsonWriter& w) const;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

class MetricRegistry {
 public:
  /// Look up or create. References stay valid for the registry's
  /// lifetime (node-based storage), so call sites may cache them.
  Counter& counter(std::string_view name, const Labels& labels = {});
  Gauge& gauge(std::string_view name, const Labels& labels = {});
  Histogram& histogram(std::string_view name, const Labels& labels = {});

  bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Folds every series of `other` into this registry: counters and
  /// gauges add, histograms add bucket-wise. Series absent here are
  /// created; series present in both are combined. Merging per-shard
  /// registries in a fixed order yields byte-identical snapshots
  /// regardless of how the shards were scheduled.
  void merge(const MetricRegistry& other);

  /// Sum over all label series of a counter family (0 when absent).
  std::uint64_t counter_total(std::string_view name) const;

  /// Serialises every family in sorted order. Shape:
  ///   "counters": {"name": {"total": N, "series": {"k=v": n, ...}}, ...}
  ///   "gauges":   {"name": {"series": {...}}, ...}
  ///   "histograms": {"name": {"series": {"k=v": {count,sum,min,max,
  ///                  buckets:[[upper,count],...]}}}, ...}
  void write_json(JsonWriter& w) const;

  /// Canonical label string: keys sorted, joined as "k=v,k2=v2".
  static std::string label_key(const Labels& labels);

 private:
  template <typename T>
  using Family = std::map<std::string, std::map<std::string, T, std::less<>>, std::less<>>;

  template <typename T>
  static T& series(Family<T>& family, std::string_view name, const Labels& labels);

  Family<Counter> counters_;
  Family<Gauge> gauges_;
  Family<Histogram> histograms_;
};

}  // namespace p4auth::telemetry
