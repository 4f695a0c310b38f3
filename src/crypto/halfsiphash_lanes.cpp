#include "crypto/halfsiphash_lanes.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace p4auth::crypto {
namespace {

inline std::uint32_t load_le32(const std::uint8_t* p) noexcept {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  // One 32-bit load: the block loader runs this per lane and word, and
  // the byte-OR idiom below is not reliably fused by the compiler.
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
#else
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
#endif
}

// ---------------------------------------------------------------------------
// Row staging. Each lane's head || tail is flattened into its own row,
// zero-padded, with the message length merged into the top byte of the
// final block, so block b of lane i is simply the little-endian word at
// byte 4*b of row i. Messages longer than kStageBytes (none on the
// packet path) are hashed by the scalar reference instead.
// ---------------------------------------------------------------------------

inline constexpr std::size_t kStageBytes = 512;
inline constexpr std::size_t kStageBlocks = kStageBytes / 4 + 1;  // + final block
// Rows are a whole number of 16-word tiles, so the AVX-512 transpose's
// full-tile loads never read past a row.
inline constexpr std::size_t kRowBytes = 4 * ((kStageBlocks + 15) & ~std::size_t{15});

/// W lanes of 32-bit words in one GCC/Clang vector. Arithmetic, shifts
/// and compares act lane-wise and compile to whatever SIMD the
/// enclosing function's target offers.
template <std::size_t W>
struct LaneVecOf {
  typedef std::uint32_t type __attribute__((vector_size(4 * W)));
};
template <std::size_t W>
using LaneVec = typename LaneVecOf<W>::type;

template <std::size_t W>
struct GroupStage {
  alignas(64) std::uint8_t rows[W][kRowBytes];
  LaneVec<W> k0;       ///< low key word per lane
  LaneVec<W> k1;       ///< high key word per lane
  LaneVec<W> nblocks;  ///< message blocks per lane; 0 marks a padded lane
  std::uint32_t max_blocks;
  std::uint32_t min_blocks;
};

// Inline copy for packet-sized spans: a library memcpy call costs more
// than moving the ~26–90 bytes a staged lane actually has, and GCC only
// inlines memcpy for compile-time sizes — so chunk with fixed-size
// copies (each a single load/store pair) and finish bytewise.
inline void copy_small(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) noexcept {
  if (n >= 16) {
    // 32- then 16-byte chunks, then one overlapped 16-byte chunk
    // covering the tail — rewriting a few already-copied bytes is free
    // and saves the byte-granular remainder loop.
    std::size_t k = 0;
    for (; k + 32 <= n; k += 32) {
      std::uint8_t w[32];
      std::memcpy(w, src + k, 32);
      std::memcpy(dst + k, w, 32);
    }
    if (k + 16 <= n) {
      std::uint8_t w[16];
      std::memcpy(w, src + k, 16);
      std::memcpy(dst + k, w, 16);
      k += 16;
    }
    if (k < n) {
      std::uint8_t w[16];
      std::memcpy(w, src + n - 16, 16);
      std::memcpy(dst + n - 16, w, 16);
    }
    return;
  }
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    std::uint64_t w;
    std::memcpy(&w, src + k, 8);
    std::memcpy(dst + k, &w, 8);
  }
  for (; k < n; ++k) dst[k] = src[k];
}

// Stages the first `n` jobs (n <= W) into `g`; lanes n..W-1 are padded.
// Returns false if any message exceeds kStageBytes. Only each lane's
// own blocks are written. The loaders also read the rest of each row,
// padded lanes' rows included; the blend discards those words.
template <std::size_t W>
[[gnu::always_inline]] inline bool stage_rows(const SipLaneJob* jobs, std::size_t n,
                                              GroupStage<W>& g) noexcept {
  g.max_blocks = 0;
  g.min_blocks = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < W; ++i) {
    std::uint64_t key = 0;
    std::uint32_t blocks = 0;
    if (i < n) {
      const SipLaneJob& job = jobs[i];
      key = job.key;
      const std::size_t total = job.head.size() + job.tail.size();
      if (total > kStageBytes) return false;
      blocks = static_cast<std::uint32_t>(total / 4 + 1);
      std::uint8_t* row = g.rows[i];
      if (!job.head.empty()) copy_small(row, job.head.data(), job.head.size());
      if (!job.tail.empty()) copy_small(row + job.head.size(), job.tail.data(), job.tail.size());
      std::memset(row + total, 0, 4);  // zero-pad the final partial word
      row[(total & ~std::size_t{3}) + 3] = static_cast<std::uint8_t>(total);
    }
    g.k0[i] = static_cast<std::uint32_t>(key);
    g.k1[i] = static_cast<std::uint32_t>(key >> 32);
    g.nblocks[i] = blocks;
    g.max_blocks = std::max(g.max_blocks, blocks);
    g.min_blocks = std::min(g.min_blocks, blocks);
  }
  return true;
}

// ---------------------------------------------------------------------------
// The kernel: HalfSipHash over W lanes in struct-of-arrays form. Init,
// SipRound, the per-block absorb with its finished-lane blend, and
// finalization are written once over LaneVec<W>; each backend
// instantiates them inside a function compiled for its ISA.
// ---------------------------------------------------------------------------

template <std::size_t W>
struct SipLanes {
  using V = LaneVec<W>;
  V v0, v1, v2, v3;

  // In place: a vector return value would change the psabi of the
  // 8- and 16-lane instantiations. AVX-512 turns this into one vprold.
  template <int K>
  [[gnu::always_inline]] static void rotl(V& x) noexcept {
    x = (x << K) | (x >> (32 - K));
  }

  [[gnu::always_inline]] void round() noexcept {
    v0 += v1;
    rotl<5>(v1);
    v1 ^= v0;
    rotl<16>(v0);
    v2 += v3;
    rotl<8>(v3);
    v3 ^= v2;
    v0 += v3;
    rotl<7>(v3);
    v3 ^= v0;
    v2 += v1;
    rotl<13>(v1);
    v1 ^= v2;
    rotl<16>(v2);
  }

  [[gnu::always_inline]] void init(const GroupStage<W>& g) noexcept {
    v0 = g.k0;
    v1 = g.k1;
    v2 = g.k0 ^ 0x6c796765u;
    v3 = g.k1 ^ 0x74656473u;
  }

  // Absorbs block `b` (word vector `m`). Lanes whose message ended
  // before `b` keep their pre-block state, frozen until finalization.
  [[gnu::always_inline]] void absorb(const V& m, std::uint32_t b, const GroupStage<W>& g,
                                     int compression) noexcept {
    const SipLanes old = *this;
    v3 ^= m;
    for (int r = 0; r < compression; ++r) round();
    v0 ^= m;
    if (b >= g.min_blocks) {
      const auto keep = g.nblocks > b;
      v0 = keep ? v0 : old.v0;
      v1 = keep ? v1 : old.v1;
      v2 = keep ? v2 : old.v2;
      v3 = keep ? v3 : old.v3;
    }
  }

  [[gnu::always_inline]] void finish(int finalization, std::uint32_t* out,
                                     std::size_t n) noexcept {
    v2 ^= 0xFFu;
    for (int r = 0; r < finalization; ++r) round();
    const V tag = v1 ^ v3;
    for (std::size_t i = 0; i < n; ++i) out[i] = tag[i];
  }
};

// Block loader of the 4- and 8-lane backends: block b's words, one
// scalar load per lane.
template <std::size_t W>
struct RowLoader {
  static constexpr std::uint32_t kTile = 1;

  [[gnu::always_inline]] static void load(const GroupStage<W>& g, std::uint32_t b,
                                          LaneVec<W>* t) noexcept {
    for (std::size_t i = 0; i < W; ++i) (*t)[i] = load_le32(g.rows[i] + 4 * std::size_t{b});
  }
};

// One pass over up to W jobs. Loader::load writes the Loader::kTile
// block vectors starting at `base`.
template <std::size_t W, class Loader>
[[gnu::always_inline]] inline void hash_pass(const SipLaneJob* jobs, std::size_t n,
                                             std::uint32_t* out, SipRounds rounds) noexcept {
  // Static storage is zero-initialized once, so a row byte this pass
  // does not write holds zero or an earlier message, never an
  // indeterminate value.
  static thread_local GroupStage<W> stage;
  if (!stage_rows(jobs, n, stage)) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = halfsiphash(jobs[i].key, jobs[i].head, jobs[i].tail, rounds);
    }
    return;
  }
  SipLanes<W> lanes;
  lanes.init(stage);
  for (std::uint32_t base = 0; base < stage.max_blocks; base += Loader::kTile) {
    LaneVec<W> tile[Loader::kTile];
    Loader::load(stage, base, tile);
    const std::uint32_t end = std::min(base + Loader::kTile, stage.max_blocks);
    for (std::uint32_t b = base; b < end; ++b) {
      lanes.absorb(tile[b - base], b, stage, rounds.compression);
    }
  }
  lanes.finish(rounds.finalization, out, n);
}

void kernel_portable(const SipLaneJob* jobs, std::size_t n, std::uint32_t* out,
                     SipRounds rounds) noexcept {
  hash_pass<4, RowLoader<4>>(jobs, n, out, rounds);
}

#if defined(__x86_64__)

__attribute__((target("avx2"))) void kernel_avx2(const SipLaneJob* jobs, std::size_t n,
                                                 std::uint32_t* out, SipRounds rounds) noexcept {
  hash_pass<8, RowLoader<8>>(jobs, n, out, rounds);
}

// ---------------------------------------------------------------------------
// AVX-512 block loader. Generic per-lane loads cost more than the rounds
// at 16 lanes, so a 16-block tile of all 16 rows is transposed in
// registers instead.
// ---------------------------------------------------------------------------

// GCC's _mm512_shuffle_i32x4 feeds _mm512_undefined_epi32() as the
// (fully masked-off) merge source, which trips -Wmaybe-uninitialized
// when inlined; the value never flows into the result.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

struct TransposeLoader {
  static constexpr std::uint32_t kTile = 16;

  // Rows r[i] = words base..base+15 of lane i become t[j] = word base+j
  // of every lane: the canonical unpack32 → unpack64 → 2x shuffle_i32x4
  // network, ~4 shuffle uops per block.
  __attribute__((target("avx512f"))) static void load(const GroupStage<16>& g,
                                                      std::uint32_t base,
                                                      LaneVec<16>* t) noexcept {
    __m512i r[16];
    for (int i = 0; i < 16; ++i) r[i] = _mm512_loadu_si512(g.rows[i] + 4 * std::size_t{base});
    __m512i u[16];
    for (int i = 0; i < 8; ++i) {
      u[2 * i] = _mm512_unpacklo_epi32(r[2 * i], r[2 * i + 1]);
      u[2 * i + 1] = _mm512_unpackhi_epi32(r[2 * i], r[2 * i + 1]);
    }
    for (int i = 0; i < 4; ++i) {
      r[4 * i] = _mm512_unpacklo_epi64(u[4 * i], u[4 * i + 2]);
      r[4 * i + 1] = _mm512_unpackhi_epi64(u[4 * i], u[4 * i + 2]);
      r[4 * i + 2] = _mm512_unpacklo_epi64(u[4 * i + 1], u[4 * i + 3]);
      r[4 * i + 3] = _mm512_unpackhi_epi64(u[4 * i + 1], u[4 * i + 3]);
    }
    for (int i = 0; i < 4; ++i) {
      u[i] = _mm512_shuffle_i32x4(r[i], r[i + 4], 0x88);
      u[i + 4] = _mm512_shuffle_i32x4(r[i], r[i + 4], 0xdd);
      u[i + 8] = _mm512_shuffle_i32x4(r[i + 8], r[i + 12], 0x88);
      u[i + 12] = _mm512_shuffle_i32x4(r[i + 8], r[i + 12], 0xdd);
    }
    for (int i = 0; i < 4; ++i) {
      t[i] = LaneVec<16>(_mm512_shuffle_i32x4(u[i], u[i + 8], 0x88));
      t[i + 4] = LaneVec<16>(_mm512_shuffle_i32x4(u[i + 4], u[i + 12], 0x88));
      t[i + 8] = LaneVec<16>(_mm512_shuffle_i32x4(u[i], u[i + 8], 0xdd));
      t[i + 12] = LaneVec<16>(_mm512_shuffle_i32x4(u[i + 4], u[i + 12], 0xdd));
    }
  }
};

__attribute__((target("avx512f"))) void kernel_avx512(const SipLaneJob* jobs, std::size_t n,
                                                      std::uint32_t* out,
                                                      SipRounds rounds) noexcept {
  hash_pass<16, TransposeLoader>(jobs, n, out, rounds);
}

#pragma GCC diagnostic pop

#endif  // defined(__x86_64__)

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

bool backend_supported(SipLaneBackend backend) noexcept {
  switch (backend) {
    case SipLaneBackend::Portable:
      return true;
#if defined(__x86_64__)
    case SipLaneBackend::Avx2:
      return __builtin_cpu_supports("avx2") != 0;
    case SipLaneBackend::Avx512:
      return __builtin_cpu_supports("avx512f") != 0;
#endif
    default:
      return false;
  }
}

SipLaneBackend detect_backend() noexcept {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx512f")) return SipLaneBackend::Avx512;
  if (__builtin_cpu_supports("avx2")) return SipLaneBackend::Avx2;
#endif
  return SipLaneBackend::Portable;
}

// -1 = no override; otherwise a SipLaneBackend value. Relaxed atomics:
// campaign workers may race benign reads against a test's set, and the
// chosen kernel never affects results (all backends are bit-identical).
std::atomic<int> g_backend_override{-1};

using KernelFn = void (*)(const SipLaneJob*, std::size_t, std::uint32_t*, SipRounds) noexcept;

KernelFn kernel_for(SipLaneBackend backend) noexcept {
  switch (backend) {
#if defined(__x86_64__)
    case SipLaneBackend::Avx2:
      return kernel_avx2;
    case SipLaneBackend::Avx512:
      return kernel_avx512;
#endif
    default:
      return kernel_portable;
  }
}

}  // namespace

SipLaneBackend active_sip_lane_backend() noexcept {
  const int forced = g_backend_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<SipLaneBackend>(forced);
  static const SipLaneBackend detected = detect_backend();
  return detected;
}

std::size_t sip_lane_width(SipLaneBackend backend) noexcept {
  switch (backend) {
    case SipLaneBackend::Avx512:
      return 16;
    case SipLaneBackend::Avx2:
      return 8;
    default:
      return 4;
  }
}

const char* sip_lane_backend_name(SipLaneBackend backend) noexcept {
  switch (backend) {
    case SipLaneBackend::Portable:
      return "portable";
    case SipLaneBackend::Avx2:
      return "avx2";
    case SipLaneBackend::Avx512:
      return "avx512";
  }
  return "unknown";
}

bool force_sip_lane_backend(SipLaneBackend backend) noexcept {
  if (!backend_supported(backend)) return false;
  g_backend_override.store(static_cast<int>(backend), std::memory_order_relaxed);
  return true;
}

void reset_sip_lane_backend() noexcept {
  g_backend_override.store(-1, std::memory_order_relaxed);
}

void halfsiphash_lanes(std::span<const SipLaneJob> jobs, std::span<std::uint32_t> out,
                       SipRounds rounds) noexcept {
  // A lone digest gains nothing from lanes: staging one row and running
  // a whole vector pass costs several times the scalar reference.
  if (jobs.size() == 1) {
    out[0] = halfsiphash(jobs[0].key, jobs[0].head, jobs[0].tail, rounds);
    return;
  }
  const SipLaneBackend backend = active_sip_lane_backend();
  const KernelFn kernel = kernel_for(backend);
  const std::size_t width = sip_lane_width(backend);
  std::size_t done = 0;
  while (done < jobs.size()) {
    const std::size_t group = std::min(width, jobs.size() - done);
    kernel(jobs.data() + done, group, out.data() + done, rounds);
    done += group;
  }
}

}  // namespace p4auth::crypto
