// Crypto microbenchmarks (google-benchmark): the data-plane-amenable
// primitives P4Auth composes — HalfSipHash variants, CRC32, the KDF under
// both PRF choices and round counts (the DESIGN.md PRF/rounds ablation),
// modified DH, and sealing/verifying a whole encoded frame.
#include <benchmark/benchmark.h>

#include <array>
#include <string>
#include <vector>

#include "core/auth.hpp"
#include "crypto/crc32.hpp"
#include "crypto/halfsiphash.hpp"
#include "crypto/halfsiphash_lanes.hpp"
#include "crypto/kdf.hpp"
#include "crypto/modified_dh.hpp"
#include "crypto/stream_cipher.hpp"

namespace {

using namespace p4auth;

void BM_HalfSipHash24(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::halfsiphash(0x1234, data, crypto::kHalfSipHash24));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_HalfSipHash24)->Arg(16)->Arg(26)->Arg(64)->Arg(256);

void BM_HalfSipHash13(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::halfsiphash(0x1234, data, crypto::kHalfSipHash13));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_HalfSipHash13)->Arg(26)->Arg(256);

// Multi-lane HalfSipHash at the P4Auth frame's job shape (26-byte
// header scratch + 64-byte payload tail, two-span), once per backend
// this host can run (registered in main() as
// BM_HalfSipHashLanes/<backend>/<lanes>). One row per lane count: 1
// (degenerate), one SIMD group (4/8/16 depending on backend), and two
// larger batches (32 and 64). The per-iteration rate
// divided by the lane count is the per-digest cost; the lanes=1 row is
// the dispatch floor.
void BM_HalfSipHashLanes(benchmark::State& state, crypto::SipLaneBackend backend) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  std::vector<std::array<std::uint8_t, 26>> heads(lanes);
  std::array<std::uint8_t, 64> tail;
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t i = 0; i < heads[l].size(); ++i) {
      heads[l][i] = static_cast<std::uint8_t>(i + l);
    }
  }
  for (std::size_t i = 0; i < tail.size(); ++i) tail[i] = static_cast<std::uint8_t>(i * 7);
  std::vector<crypto::SipLaneJob> jobs;
  for (std::size_t l = 0; l < lanes; ++l) {
    jobs.push_back(crypto::SipLaneJob{0x1234 + l, heads[l], tail});
  }
  std::vector<std::uint32_t> out(lanes, 0);
  crypto::force_sip_lane_backend(backend);
  for (auto _ : state) {
    crypto::halfsiphash_lanes(jobs, out);
    benchmark::DoNotOptimize(out.data());
  }
  crypto::reset_sip_lane_backend();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lanes));
  state.SetLabel(crypto::sip_lane_backend_name(backend));
}

void register_lane_benchmarks() {
  for (crypto::SipLaneBackend backend :
       {crypto::SipLaneBackend::Portable, crypto::SipLaneBackend::Avx2,
        crypto::SipLaneBackend::Avx512}) {
    if (!crypto::force_sip_lane_backend(backend)) continue;
    const std::string name =
        std::string("BM_HalfSipHashLanes/") + crypto::sip_lane_backend_name(backend);
    benchmark::RegisterBenchmark(name.c_str(), BM_HalfSipHashLanes, backend)
        ->Arg(1)
        ->Arg(4)
        ->Arg(8)
        ->Arg(16)
        ->Arg(32)
        ->Arg(64);
  }
  crypto::reset_sip_lane_backend();
}

void BM_Crc32(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::crc32(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(26)->Arg(256);

void BM_KdfCrc(benchmark::State& state) {
  const crypto::Kdf kdf(crypto::PrfKind::Crc32, static_cast<int>(state.range(0)));
  std::uint64_t salt = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kdf.derive(0xFEED, ++salt));
  }
}
BENCHMARK(BM_KdfCrc)->Arg(1)->Arg(2)->Arg(4);

void BM_KdfSip(benchmark::State& state) {
  const crypto::Kdf kdf(crypto::PrfKind::HalfSipHash24, static_cast<int>(state.range(0)));
  std::uint64_t salt = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kdf.derive(0xFEED, ++salt));
  }
}
BENCHMARK(BM_KdfSip)->Arg(1)->Arg(2);

void BM_ModifiedDhExchange(benchmark::State& state) {
  Xoshiro256 rng(1);
  for (auto _ : state) {
    const auto r1 = crypto::draw_private_key(rng);
    const auto pk1 = crypto::dh_public(crypto::kDefaultDhParams, r1);
    benchmark::DoNotOptimize(crypto::dh_shared(crypto::kDefaultDhParams, r1, pk1));
  }
}
BENCHMARK(BM_ModifiedDhExchange);

void BM_StreamCipher(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0xAB);
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    crypto::xor_keystream(0xFEED, ++nonce, data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_StreamCipher)->Arg(16)->Arg(64)->Arg(256);

void BM_SealFrame(benchmark::State& state) {
  core::Message msg;
  msg.header.hdr_type = core::HdrType::RegisterOp;
  msg.header.msg_type = 2;
  msg.payload = core::RegisterOpPayload{RegisterId{1}, 2, 3};
  Bytes frame = core::encode(msg);
  for (auto _ : state) {
    core::seal_frame(crypto::MacKind::HalfSipHash24, 0xFEED, frame);
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SealFrame);

void BM_VerifyFrame(benchmark::State& state) {
  core::Message msg;
  msg.header.hdr_type = core::HdrType::RegisterOp;
  msg.header.msg_type = 2;
  msg.payload = core::RegisterOpPayload{RegisterId{1}, 2, 3};
  Bytes frame = core::encode(msg);
  core::seal_frame(crypto::MacKind::HalfSipHash24, 0xFEED, frame);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::verify_frame(crypto::MacKind::HalfSipHash24, 0xFEED, frame));
  }
}
BENCHMARK(BM_VerifyFrame);

void BM_WireEncodeDecode(benchmark::State& state) {
  core::Message msg;
  msg.header.hdr_type = core::HdrType::RegisterOp;
  msg.header.msg_type = 2;
  msg.payload = core::RegisterOpPayload{RegisterId{1}, 2, 3};
  for (auto _ : state) {
    const Bytes frame = core::encode(msg);
    benchmark::DoNotOptimize(core::decode(frame));
  }
}
BENCHMARK(BM_WireEncodeDecode);

}  // namespace

int main(int argc, char** argv) {
  register_lane_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
