#include "apps/netcache/netcache.hpp"

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
  const auto magic = r.u8();
  if (!magic.ok() || magic.value() != kQueryMagic) return make_error("not a query");
  if (r.remaining() < 4) return make_error("query truncated");
  return Query{r.u32().value()};
}

Bytes encode_response(const Response& response) {
  Bytes out;
  ByteWriter w(out);
  w.u8(kResponseMagic).u32(response.key).u64(response.value).u8(response.from_cache ? 1 : 0);
  return out;
}

Result<Response> decode_response(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  const auto magic = r.u8();
  if (!magic.ok() || magic.value() != kResponseMagic) return make_error("not a response");
  if (r.remaining() < 13) return make_error("response truncated");
  Response resp;
  resp.key = r.u32().value();
  resp.value = r.u64().value();
  resp.from_cache = r.u8().value() != 0;
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

void NetCacheManager::estimate_key(std::uint32_t key,
                                   std::function<void(Result<std::uint64_t>)> done) {
  struct State {
    std::uint64_t min_count = ~0ull;
    int reads = 0;
    bool failed = false;
    std::function<void(Result<std::uint64_t>)> done;
  };
  auto state = std::make_shared<State>();
  state->done = std::move(done);
  for (int row = 0; row < NetCacheProgram::Config::kCmsRows; ++row) {
    const auto idx =
        static_cast<std::uint32_t>(NetCacheProgram::cms_index(row, key, cms_width_));
    controller_.read_register(sw_, kCmsReg, idx, [state](Result<std::uint64_t> value) {
      if (state->failed) return;
      if (!value.ok()) {
        state->failed = true;
        state->done(make_error("sketch read aborted: " + value.error().message));
        return;
      }
      state->min_count = std::min(state->min_count, value.value());
      if (++state->reads == NetCacheProgram::Config::kCmsRows) state->done(state->min_count);
    });
  }
}

void NetCacheManager::install_hottest(std::vector<std::uint32_t> candidates,
                                      std::uint32_t slot, std::uint64_t value,
                                      std::function<void(Result<std::uint32_t>)> done) {
  struct State {
    std::size_t remaining;
    bool failed = false;
    std::uint32_t best_key = 0;
    std::uint64_t best_count = 0;
    std::function<void(Result<std::uint32_t>)> done;
  };
  auto state = std::make_shared<State>();
  state->remaining = candidates.size();
  state->done = std::move(done);
  if (candidates.empty()) {
    state->done(make_error("no candidate keys"));
    return;
  }
  for (const std::uint32_t key : candidates) {
    estimate_key(key, [this, state, key, slot, value](Result<std::uint64_t> estimate) {
      if (state->failed) return;
      if (!estimate.ok()) {
        state->failed = true;
        state->done(estimate.error());
        return;
      }
      if (estimate.value() >= state->best_count) {
        state->best_count = estimate.value();
        state->best_key = key;
      }
      if (--state->remaining > 0) return;
      install_hot_key(slot, state->best_key, value, [state](Status status) {
        if (!status.ok()) {
          state->done(status.error());
          return;
        }
        state->done(state->best_key);
      });
    });
  }
}

void NetCacheManager::install_hot_key(std::uint32_t slot, std::uint32_t key,
                                      std::uint64_t value, std::function<void(Status)> done) {
  auto state = std::make_shared<std::pair<int, bool>>(0, false);  // {completed, failed}
  const auto on_write = [state, done = std::move(done)](Result<std::uint64_t> result) {
    if (state->second) return;
    if (!result.ok()) {
      state->second = true;
      done(result.error());
      return;
    }
    if (++state->first == 2) done(Status{});
  };
  controller_.write_register(sw_, kCacheKeyReg, slot, key, on_write);
  controller_.write_register(sw_, kCacheValReg, slot, value, on_write);
}

void NetCacheManager::clear_sketch(std::size_t entries, std::function<void(Status)> done) {
  auto state = std::make_shared<std::pair<std::size_t, bool>>(0, false);
  const auto on_write = [state, entries, done = std::move(done)](Result<std::uint64_t> result) {
    if (state->second) return;
    if (!result.ok()) {
      state->second = true;
      done(result.error());
      return;
    }
    if (++state->first == entries) done(Status{});
  };
  for (std::size_t i = 0; i < entries; ++i) {
    controller_.write_register(sw_, kCmsReg, static_cast<std::uint32_t>(i), 0, on_write);
  }
}

}  // namespace p4auth::apps::netcache
