#include "apps/routescout/routescout.hpp"

#include <cmath>

#include "common/rng.hpp"

namespace p4auth::apps::routescout {

Bytes encode_data(const RsData& data) {
  Bytes out;
  out.reserve(13);  // magic, flow_id, size_bytes
  ByteWriter w(out);
  w.u8(kDataMagic).u64(data.flow_id).u32(data.size_bytes);
  return out;
}

Result<RsData> decode_data(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  if (r.u8() != kDataMagic) return make_error("not RouteScout data");
  if (r.remaining() < 12) return make_error("RouteScout data truncated");
  RsData data;
  data.flow_id = r.u64();
  data.size_bytes = r.u32();
  return data;
}

Bytes encode_sample(const RsSample& sample) {
  Bytes out;
  ByteWriter w(out);
  w.u8(kSampleMagic).u8(sample.path).u32(sample.latency_us);
  return out;
}

Result<RsSample> decode_sample(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  if (r.u8() != kSampleMagic) return make_error("not a latency sample");
  if (r.remaining() < 5) return make_error("sample truncated");
  RsSample sample;
  sample.path = r.u8();
  sample.latency_us = r.u32();
  return sample;
}

RouteScoutProgram::RouteScoutProgram(Config config, dataplane::RegisterFile& registers)
    : config_(std::move(config)) {
  const std::size_t paths = config_.path_ports.size();
  lat_sum_ = registers.create("rs_lat_sum", kLatSumReg, paths, 64).value();
  lat_cnt_ = registers.create("rs_lat_cnt", kLatCntReg, paths, 64).value();
  split_ = registers.create("rs_split", kSplitReg, paths, 32).value();
  // Start with an equal split.
  const auto share = static_cast<std::uint64_t>(100 / paths);
  for (std::size_t i = 0; i < paths; ++i) {
    (void)split_->write(i, i + 1 == paths ? 100 - share * (paths - 1) : share);
  }
  stats_.path_bytes.assign(paths, 0);
}

dataplane::PipelineOutput RouteScoutProgram::process(dataplane::Packet& packet,
                                                     dataplane::PipelineContext& ctx) {
  if (packet.payload.empty()) return dataplane::PipelineOutput::drop();

  if (packet.payload[0] == kSampleMagic) {
    const auto sample = decode_sample(packet.payload);
    if (!sample.ok()) return dataplane::PipelineOutput::drop();
    const std::uint8_t path = sample.value().path;
    if (path >= lat_sum_->size()) return dataplane::PipelineOutput::drop();
    (void)lat_sum_->write(path, lat_sum_->read(path).value_or(0) + sample.value().latency_us);
    (void)lat_cnt_->write(path, lat_cnt_->read(path).value_or(0) + 1);
    ctx.costs().register_accesses += 4;
    ++stats_.samples_recorded;
    return dataplane::PipelineOutput{};
  }

  if (packet.payload[0] == kDataMagic) {
    const auto data = decode_data(packet.payload);
    if (!data.ok()) return dataplane::PipelineOutput::drop();
    // Deterministic per-flow draw in [0, 100), walked against the
    // cumulative split ratios.
    SplitMix64 mix(data.value().flow_id);
    const auto draw = mix.next() % 100;
    ctx.costs().add_hash(sizeof(data.value().flow_id));
    std::uint64_t cumulative = 0;
    std::size_t chosen = config_.path_ports.size() - 1;
    for (std::size_t i = 0; i < config_.path_ports.size(); ++i) {
      cumulative += split_->read(i).value_or(0);
      ++ctx.costs().register_accesses;
      if (draw < cumulative) {
        chosen = i;
        break;
      }
    }
    ++ctx.costs().table_lookups;
    ctx.note_table("rs_path_select");
    ++stats_.data_forwarded;
    stats_.path_bytes[chosen] += data.value().size_bytes;
    return dataplane::PipelineOutput::unicast(config_.path_ports[chosen], packet.payload);
  }

  return dataplane::PipelineOutput::drop();
}

dataplane::PipelineModel RouteScoutProgram::pipeline_model() const {
  using M = dataplane::PipelineModel;
  M m;
  m.name = "routescout";
  m.hash_uses.push_back(dataplane::HashUse::crc32("rs_flow_hash"));
  m.header_phv_bits = 8 + 96;
  m.metadata_phv_bits = 96;
  const auto entry = m.add(M::parse("rs"));
  m.then(entry, M::drop(), "malformed", {{"hdr.rs.valid", false}});
  // Latency samples feed the per-path aggregates and stop here.
  const auto sum = m.then(entry, M::reg_write(*lat_sum_, 2), "sample",
                          {{"hdr.rs.valid", true}, {"hdr.sample", true}});
  const auto cnt = m.then(sum, M::reg_write(*lat_cnt_, 2));
  m.then(cnt, M::consume());
  // Data packets follow the weighted split toward a path port.
  const auto split = m.then(entry, M::reg_read(*split_), "data",
                            {{"hdr.rs.valid", true}, {"hdr.sample", false}});
  const auto select =
      m.then(split, M::table({"rs_path_select", dataplane::MatchKind::Exact, 8, 64, 16}));
  m.then(select, M::emit("data"));
  return m;
}

void RouteScoutManager::run_epoch(std::function<void(Status)> done) {
  if (num_paths_ < 1) {
    done(make_error("RouteScout needs at least one path"));
    return;
  }
  // Pull phase: read sum and count for every path; any verification
  // failure aborts the epoch (the controller refuses to act on data it
  // cannot authenticate).
  std::vector<controller::Controller::RegisterOp> reads;
  for (int path = 0; path < num_paths_; ++path) {
    const auto idx = static_cast<std::uint32_t>(path);
    reads.push_back({core::RegisterMsg::ReadReq, kLatSumReg, idx});
    reads.push_back({core::RegisterMsg::ReadReq, kLatCntReg, idx});
  }
  controller_.run_register_ops(
      sw_, reads,
      [this, done = std::move(done)](Result<std::vector<std::uint64_t>> aggregates) mutable {
        if (!aggregates.ok()) {
          ++stats_.epochs_aborted;
          done(aggregates.error());
          return;
        }
        finish_epoch(aggregates.value(), std::move(done));
      });
}

void RouteScoutManager::finish_epoch(const std::vector<std::uint64_t>& aggregates,
                                     std::function<void(Status)> done) {
  // Analyze: inverse-latency weighting; paths with no samples keep a tiny
  // weight so they continue to be probed. `aggregates` holds each path's
  // (sum, count) pair in path order.
  const auto paths = static_cast<std::size_t>(num_paths_);
  std::vector<double> avg(paths, 0.0);
  std::vector<double> weight(paths, 0.0);
  double total_weight = 0.0;
  for (std::size_t i = 0; i < paths; ++i) {
    const std::uint64_t sum = aggregates[2 * i];
    const std::uint64_t count = aggregates[2 * i + 1];
    avg[i] = count > 0 ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
    weight[i] = avg[i] > 0 ? 1.0 / avg[i] : 1e-6;
    total_weight += weight[i];
  }
  std::vector<std::uint64_t> split(paths, 0);
  std::uint64_t assigned = 0;
  for (std::size_t i = 0; i + 1 < paths; ++i) {
    split[i] = static_cast<std::uint64_t>(std::llround(100.0 * weight[i] / total_weight));
    assigned += split[i];
  }
  split[paths - 1] = 100 - assigned;

  stats_.last_split = split;
  stats_.last_avg_latency_us = avg;

  // Push phase: write the new split and clear the aggregates.
  std::vector<controller::Controller::RegisterOp> writes;
  writes.reserve(3 * paths);
  for (std::size_t i = 0; i < paths; ++i) {
    const auto idx = static_cast<std::uint32_t>(i);
    writes.push_back({core::RegisterMsg::WriteReq, kSplitReg, idx, split[i]});
    writes.push_back({core::RegisterMsg::WriteReq, kLatSumReg, idx, 0});
    writes.push_back({core::RegisterMsg::WriteReq, kLatCntReg, idx, 0});
  }
  controller_.run_register_ops(
      sw_, writes, [this, done = std::move(done)](Result<std::vector<std::uint64_t>> written) {
        if (written.ok()) {
          ++stats_.epochs_completed;
        } else {
          ++stats_.epochs_aborted;
        }
        done(status_of(written));
      });
}

}  // namespace p4auth::apps::routescout
