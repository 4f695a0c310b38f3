#include "apps/netcache/netcache.hpp"

#include <algorithm>
#include <span>

#include "crypto/crc32.hpp"

namespace p4auth::apps::netcache {

Bytes encode_query(const Query& query) {
  Bytes out;
  ByteWriter w(out);
  w.u8(kQueryMagic).u32(query.key);
  return out;
}

Result<Query> decode_query(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  if (r.u8() != kQueryMagic) return make_error("not a query");
  if (r.remaining() < 4) return make_error("query truncated");
  return Query{r.u32()};
}

Bytes encode_response(const Response& response) {
  Bytes out;
  ByteWriter w(out);
  w.u8(kResponseMagic).u32(response.key).u64(response.value).u8(response.from_cache ? 1 : 0);
  return out;
}

Result<Response> decode_response(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  if (r.u8() != kResponseMagic) return make_error("not a response");
  if (r.remaining() < 13) return make_error("response truncated");
  Response resp;
  resp.key = r.u32();
  resp.value = r.u64();
  resp.from_cache = r.u8() != 0;
  return resp;
}

NetCacheProgram::NetCacheProgram(Config config, dataplane::RegisterFile& registers)
    : config_(config) {
  cache_key_ =
      registers.create("nc_cache_key", kCacheKeyReg, config_.cache_slots, 32).value();
  cache_val_ =
      registers.create("nc_cache_val", kCacheValReg, config_.cache_slots, 64).value();
  cms_ = registers
             .create("nc_cms", kCmsReg,
                     config_.cms_width * static_cast<std::size_t>(Config::kCmsRows), 32)
             .value();
}

std::size_t NetCacheProgram::cms_index(int row, std::uint32_t key, std::size_t width) {
  crypto::Crc32 crc;
  crc.update_u32(static_cast<std::uint32_t>(row) * 0x9E3779B9u);
  crc.update_u32(key);
  return static_cast<std::size_t>(row) * width + crc.final() % width;
}

std::uint64_t NetCacheProgram::estimate(std::uint32_t key) const {
  std::uint64_t min_count = ~0ull;
  for (int row = 0; row < Config::kCmsRows; ++row) {
    min_count =
        std::min(min_count, cms_->read(cms_index(row, key, config_.cms_width)).value_or(0));
  }
  return min_count;
}

dataplane::PipelineOutput NetCacheProgram::process(dataplane::Packet& packet,
                                                   dataplane::PipelineContext& ctx) {
  if (packet.payload.empty()) return dataplane::PipelineOutput::drop();

  if (packet.payload[0] == kResponseMagic) {
    // Server reply heading back to the client.
    return dataplane::PipelineOutput::unicast(config_.client_port, packet.payload);
  }
  if (packet.payload[0] != kQueryMagic) return dataplane::PipelineOutput::drop();

  const auto query = decode_query(packet.payload);
  if (!query.ok()) return dataplane::PipelineOutput::drop();
  const std::uint32_t key = query.value().key;

  // Popularity accounting (count-min sketch, one hash per row).
  for (int row = 0; row < Config::kCmsRows; ++row) {
    const std::size_t idx = cms_index(row, key, config_.cms_width);
    (void)cms_->write(idx, cms_->read(idx).value_or(0) + 1);
    ctx.costs().add_hash(4);
    ctx.costs().register_accesses += 2;
  }

  // Cache lookup across the slot registers.
  ctx.note_table("nc_cache_lookup");
  for (std::size_t slot = 0; slot < config_.cache_slots; ++slot) {
    ++ctx.costs().register_accesses;
    if (cache_key_->read(slot).value_or(0) == key && key != 0) {
      ++stats_.hits;
      Response resp{key, cache_val_->read(slot).value_or(0), true};
      return dataplane::PipelineOutput::unicast(config_.client_port, encode_response(resp));
    }
  }
  ++stats_.misses;
  return dataplane::PipelineOutput::unicast(config_.server_port, packet.payload);
}

dataplane::PipelineModel NetCacheProgram::pipeline_model() const {
  using M = dataplane::PipelineModel;
  M m;
  m.name = "netcache";
  for (int row = 0; row < Config::kCmsRows; ++row) {
    m.hash_uses.push_back(dataplane::HashUse::crc32("nc_cms_row"));
  }
  m.header_phv_bits = 8 + 32 + 64;
  m.metadata_phv_bits = 64;
  const auto entry = m.add(M::parse("kv"));
  m.then(entry, M::drop(), "malformed", {{"hdr.kv.valid", false}});
  // Server replies pass straight back toward the client.
  m.then(entry, M::emit("client"), "response",
         {{"hdr.kv.valid", true}, {"hdr.response", true}});
  // Queries: popularity sketch update, then the cache lookup.
  const auto cms = m.then(entry, M::reg_write(*cms_, 2 * Config::kCmsRows), "query",
                          {{"hdr.kv.valid", true}, {"hdr.response", false}});
  const auto lookup = m.then(cms, M::table({"nc_cache_lookup", dataplane::MatchKind::Exact, 32,
                                            64, config_.cache_slots}));
  const auto keys = m.then(lookup, M::reg_read(*cache_key_));
  m.then(m.then(keys, M::reg_read(*cache_val_), "hit",
                {{"tbl.nc_cache_lookup.hit", true}}),
         M::emit("client"));
  m.then(keys, M::emit("server"), "miss", {{"tbl.nc_cache_lookup.hit", false}});
  return m;
}

namespace {

/// The estimate of the `key_pos`-th key whose sketch reads produced
/// `counts`: the minimum over its rows.
std::uint64_t min_over_rows(const std::vector<std::uint64_t>& counts, std::size_t key_pos) {
  constexpr std::size_t kRows = NetCacheProgram::Config::kCmsRows;
  return std::ranges::min(std::span(counts).subspan(key_pos * kRows, kRows));
}

}  // namespace

void NetCacheManager::append_sketch_reads(
    std::uint32_t key, std::vector<controller::Controller::RegisterOp>& reads) const {
  for (int row = 0; row < NetCacheProgram::Config::kCmsRows; ++row) {
    const auto idx =
        static_cast<std::uint32_t>(NetCacheProgram::cms_index(row, key, cms_width_));
    reads.push_back({core::RegisterMsg::ReadReq, kCmsReg, idx});
  }
}

void NetCacheManager::estimate_key(std::uint32_t key,
                                   std::function<void(Result<std::uint64_t>)> done) {
  std::vector<controller::Controller::RegisterOp> reads;
  append_sketch_reads(key, reads);
  controller_.run_register_ops(
      sw_, reads, [done = std::move(done)](Result<std::vector<std::uint64_t>> counts) {
        if (!counts.ok()) {
          done(counts.error());
          return;
        }
        done(min_over_rows(counts.value(), 0));
      });
}

void NetCacheManager::install_hottest(std::vector<std::uint32_t> candidates,
                                      std::uint32_t slot, std::uint64_t value,
                                      std::function<void(Result<std::uint32_t>)> done) {
  if (candidates.empty()) {
    done(make_error("no candidate keys"));
    return;
  }
  std::vector<controller::Controller::RegisterOp> reads;
  reads.reserve(candidates.size() * NetCacheProgram::Config::kCmsRows);
  for (const std::uint32_t key : candidates) append_sketch_reads(key, reads);
  controller_.run_register_ops(
      sw_, reads,
      [this, candidates = std::move(candidates), slot, value,
       done = std::move(done)](Result<std::vector<std::uint64_t>> counts) mutable {
        if (!counts.ok()) {
          done(counts.error());
          return;
        }
        // Ties go to the later candidate.
        std::uint32_t best_key = 0;
        std::uint64_t best_count = 0;
        for (std::size_t i = 0; i < candidates.size(); ++i) {
          const std::uint64_t estimate = min_over_rows(counts.value(), i);
          if (estimate >= best_count) {
            best_count = estimate;
            best_key = candidates[i];
          }
        }
        install_hot_key(slot, best_key, value, [best_key, done = std::move(done)](Status status) {
          if (!status.ok()) {
            done(status.error());
            return;
          }
          done(best_key);
        });
      });
}

void NetCacheManager::install_hot_key(std::uint32_t slot, std::uint32_t key,
                                      std::uint64_t value, std::function<void(Status)> done) {
  using core::RegisterMsg;
  controller_.run_register_ops(
      sw_, {{RegisterMsg::WriteReq, kCacheKeyReg, slot, key},
            {RegisterMsg::WriteReq, kCacheValReg, slot, value}},
      [done = std::move(done)](Result<std::vector<std::uint64_t>> r) { done(status_of(r)); });
}

void NetCacheManager::clear_sketch(std::size_t entries, std::function<void(Status)> done) {
  std::vector<controller::Controller::RegisterOp> writes;
  writes.reserve(entries);
  for (std::size_t i = 0; i < entries; ++i) {
    writes.push_back({core::RegisterMsg::WriteReq, kCmsReg, static_cast<std::uint32_t>(i), 0});
  }
  controller_.run_register_ops(
      sw_, writes,
      [done = std::move(done)](Result<std::vector<std::uint64_t>> r) { done(status_of(r)); });
}

}  // namespace p4auth::apps::netcache
