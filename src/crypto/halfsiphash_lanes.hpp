// Multi-lane HalfSipHash: 4–16 independent keyed digests computed in
// parallel with SIMD where the host CPU offers it.
//
// The scalar HalfSipHash (halfsiphash.hpp) is ~40 ALU ops per 4-byte
// block on a single 32-bit state; a burst of packets authenticates
// frames with *independent* keys and messages, which is embarrassingly
// lane-parallel: hold N SipStates in struct-of-arrays vector registers
// and feed each lane its own message words. This module is the digest
// engine behind the burst pipeline (src/netsim) — the two-span
// (head, tail) job shape matches the copy-free digest seam from the
// zero-alloc hot path, so burst planning hashes wire bytes in place.
//
// One kernel, written once over GCC/Clang vector extensions, serves
// every backend; a backend is that kernel compiled for one ISA at one
// lane width.
//
// Determinism contract: every backend is bit-identical to the scalar
// reference for every (key, head, tail, rounds) input — enforced by
// tests/crypto/halfsiphash_lanes_test.cpp across all available
// backends, randomized lengths, and ragged lane counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "crypto/halfsiphash.hpp"

namespace p4auth::crypto {

/// Widest lane group any backend processes per pass (AVX-512: 16 x
/// 32-bit).
inline constexpr std::size_t kMaxSipLanes = 16;

/// One digest request: HalfSipHash(key, head || tail). Single-span jobs
/// leave `tail` empty. Spans must stay valid for the duration of the
/// halfsiphash_lanes() call; nothing is copied.
struct SipLaneJob {
  std::uint64_t key = 0;
  std::span<const std::uint8_t> head{};
  std::span<const std::uint8_t> tail{};
};

/// SIMD kernel selection, runtime-dispatched: Avx512 when the CPU
/// reports AVX-512F (16 lanes with native 32-bit rotates — vprold — and
/// an in-register 16x16 transpose as the block loader), else Avx2 on
/// x86-64 (8 lanes), else Portable: 4 lanes in the baseline ISA's
/// vectors (SSE2 on x86-64, NEON on AArch64, scalar code elsewhere).
/// The numeric values are fixed, not contiguous: test names and test
/// seeds derive from them.
enum class SipLaneBackend : std::uint8_t {
  Portable = 0,
  Avx2 = 2,
  Avx512 = 4,
};

/// Backend the next halfsiphash_lanes() call will use (override or
/// detected).
SipLaneBackend active_sip_lane_backend() noexcept;

/// Lanes processed per kernel pass for `backend` (16 for Avx512, 8 for
/// Avx2, else 4).
std::size_t sip_lane_width(SipLaneBackend backend) noexcept;

/// Stable lower-case name for bench/test labels ("portable", "avx2",
/// "avx512").
const char* sip_lane_backend_name(SipLaneBackend backend) noexcept;

/// Test/bench hook: pin the backend. Returns false (and leaves the
/// selection unchanged) if this host cannot execute `backend`.
bool force_sip_lane_backend(SipLaneBackend backend) noexcept;

/// Undo force_sip_lane_backend(); reverts to runtime detection.
void reset_sip_lane_backend() noexcept;

/// Compute out[i] = HalfSipHash(jobs[i].key, jobs[i].head || jobs[i].tail)
/// for every job, in groups of sip_lane_width() lanes. Accepts any job
/// count (including 0); ragged final groups and mixed message lengths
/// within a group are handled with per-lane masking. A single job, and a
/// group holding a message over 512 bytes, are hashed by the scalar
/// reference. Requires out.size() >= jobs.size().
void halfsiphash_lanes(std::span<const SipLaneJob> jobs, std::span<std::uint32_t> out,
                       SipRounds rounds = kHalfSipHash24) noexcept;

}  // namespace p4auth::crypto
