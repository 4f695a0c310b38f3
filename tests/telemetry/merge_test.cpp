// Snapshot-merge semantics: counters/gauges add, histograms add
// bucket-wise, disjoint label series union, empty snapshots are the
// identity, and trace totals accumulate without copying records.
#include <gtest/gtest.h>

#include "telemetry/telemetry.hpp"

namespace p4auth::telemetry {
namespace {

TEST(MergeSnapshots, DisjointLabelSeriesUnion) {
  MetricRegistry a;
  a.counter("auth.verify_ok", {{"switch", "1"}}).inc(10);
  MetricRegistry b;
  b.counter("auth.verify_ok", {{"switch", "2"}}).inc(5);
  b.counter("auth.verify_fail", {{"switch", "2"}}).inc(3);

  a.merge(b);
  EXPECT_EQ(a.counter("auth.verify_ok", {{"switch", "1"}}).value(), 10u);
  EXPECT_EQ(a.counter("auth.verify_ok", {{"switch", "2"}}).value(), 5u);
  EXPECT_EQ(a.counter_total("auth.verify_ok"), 15u);
  EXPECT_EQ(a.counter_total("auth.verify_fail"), 3u);
}

TEST(MergeSnapshots, OverlappingSeriesAdd) {
  MetricRegistry a;
  a.counter("net.frames").inc(7);
  a.gauge("queue.depth", {{"port", "1"}}).set(2.5);
  MetricRegistry b;
  b.counter("net.frames").inc(3);
  b.gauge("queue.depth", {{"port", "1"}}).set(1.5);

  a.merge(b);
  EXPECT_EQ(a.counter("net.frames").value(), 10u);
  EXPECT_DOUBLE_EQ(a.gauge("queue.depth", {{"port", "1"}}).value(), 4.0);
}

TEST(MergeSnapshots, HistogramBucketsAdd) {
  MetricRegistry a;
  auto& ha = a.histogram("kmp.rtt_us");
  ha.observe(3.0);   // bucket [2,4)
  ha.observe(100.0); // bucket [64,128)
  MetricRegistry b;
  auto& hb = b.histogram("kmp.rtt_us");
  hb.observe(3.5);   // bucket [2,4)
  hb.observe(0.25);  // bucket v < 1

  a.merge(b);
  const auto& merged = a.histogram("kmp.rtt_us");
  EXPECT_EQ(merged.count(), 4u);
  EXPECT_DOUBLE_EQ(merged.sum(), 106.75);
  EXPECT_DOUBLE_EQ(merged.min(), 0.25);
  EXPECT_DOUBLE_EQ(merged.max(), 100.0);
  EXPECT_EQ(merged.bucket(Histogram::bucket_index(3.0)), 2u);
  EXPECT_EQ(merged.bucket(Histogram::bucket_index(100.0)), 1u);
  EXPECT_EQ(merged.bucket(0), 1u);
}

TEST(MergeSnapshots, MergingIntoEmptyHistogramCopiesExtremes) {
  MetricRegistry a;
  a.histogram("h");  // created but never observed
  MetricRegistry b;
  b.histogram("h").observe(42.0);

  a.merge(b);
  EXPECT_EQ(a.histogram("h").count(), 1u);
  EXPECT_DOUBLE_EQ(a.histogram("h").min(), 42.0);
  EXPECT_DOUBLE_EQ(a.histogram("h").max(), 42.0);
}

TEST(MergeSnapshots, EmptySnapshotIsIdentity) {
  Telemetry full;
  full.metrics.counter("c").inc(4);
  full.metrics.histogram("h").observe(9.0);
  full.stamp(SimTime::from_ms(10));
  const std::string before = full.metrics_json();

  Telemetry empty;
  merge_snapshots(full, empty);
  EXPECT_EQ(full.metrics_json(), before);

  Telemetry fresh;
  merge_snapshots(fresh, full);
  EXPECT_EQ(fresh.metrics_json(), before);
}

TEST(MergeSnapshots, StampBecomesMaxAndTraceTotalsAccumulate) {
  Telemetry a;
  a.stamp(SimTime::from_ms(5));
  a.trace.record(SimTime::from_ms(1), NodeId{1}, PortId{1}, TraceEventKind::Ingress);
  Telemetry b;
  b.stamp(SimTime::from_ms(9));
  b.trace.record(SimTime::from_ms(2), NodeId{2}, PortId{1}, TraceEventKind::Egress);
  b.trace.record(SimTime::from_ms(3), NodeId{2}, PortId{1}, TraceEventKind::Egress);

  merge_snapshots(a, b);
  EXPECT_EQ(a.stamped.ns(), SimTime::from_ms(9).ns());
  EXPECT_EQ(a.trace.total_recorded(), 3u);
  // Records are not copied: only a's own event remains in the window.
  EXPECT_EQ(a.trace.size(), 1u);
  EXPECT_EQ(a.trace.overwritten(), 2u);
}

TEST(MergeSnapshots, MergeOrderIsAssociativeForCounters) {
  Telemetry x, y, z;
  x.metrics.counter("c").inc(1);
  y.metrics.counter("c").inc(2);
  z.metrics.counter("c").inc(4);

  Telemetry left;
  merge_snapshots(left, x);
  merge_snapshots(left, y);
  merge_snapshots(left, z);

  Telemetry yz;
  merge_snapshots(yz, y);
  merge_snapshots(yz, z);
  Telemetry right;
  merge_snapshots(right, x);
  merge_snapshots(right, yz);

  EXPECT_EQ(left.metrics_json(), right.metrics_json());
}

}  // namespace
}  // namespace p4auth::telemetry
