#include "attacks/link_mitm.hpp"

#include <algorithm>

#include "core/wire.hpp"

namespace p4auth::attacks {
namespace {

namespace hula = apps::hula;

/// Forces max_util (and the per-hop utils, to be thorough) of the probe
/// encoded in `bytes`, in place: the hop count and so the length stay.
/// `scratch` keeps the decode allocation-free once its trace has grown.
/// Returns false, leaving the bytes alone, if they are not a probe.
bool forge_probe(std::span<std::uint8_t> bytes, std::uint8_t forced_util, hula::Probe& scratch) {
  // Most frames on the link are data: turn them away before the decoder,
  // whose error path allocates its message.
  if (bytes.empty() || bytes[0] != hula::kProbeMagic) return false;
  if (!hula::decode_probe_into(bytes, scratch).ok()) return false;
  scratch.max_util = forced_util;
  for (auto& hop : scratch.trace) hop.util = std::min(hop.util, forced_util);
  hula::encode_probe_to(scratch, bytes);
  return true;
}

/// The payload a DpData frame carries; empty when the header is cut short.
std::span<std::uint8_t> carried_payload(Bytes& frame) {
  if (!core::decode_header(frame).ok()) return {};
  return std::span(frame).subspan(core::kHeaderSize);
}

bool is_dp_data(const Bytes& frame) {
  return !frame.empty() && frame[0] == static_cast<std::uint8_t>(core::HdrType::DpData);
}

}  // namespace

netsim::TamperHook make_probe_util_rewriter(std::uint8_t forced_util) {
  return [forced_util, scratch = hula::Probe{}](Bytes& frame) mutable {
    if (is_dp_data(frame)) {
      // The header and its digest stay as they were: the digest is stale.
      (void)forge_probe(carried_payload(frame), forced_util, scratch);
      return netsim::TamperVerdict::Pass;
    }
    (void)forge_probe(frame, forced_util, scratch);  // raw probe: attack succeeds
    return netsim::TamperVerdict::Pass;
  };
}

netsim::TamperHook make_probe_strip_and_forge(std::uint8_t forced_util) {
  return [forced_util, scratch = hula::Probe{}](Bytes& frame) mutable {
    if (is_dp_data(frame)) {
      if (forge_probe(carried_payload(frame), forced_util, scratch)) {
        // Authentication stripped: the forged probe moves to the front.
        frame.erase(frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(core::kHeaderSize));
      }
      return netsim::TamperVerdict::Pass;
    }
    (void)forge_probe(frame, forced_util, scratch);
    return netsim::TamperVerdict::Pass;
  };
}

netsim::TamperHook make_probe_dropper() {
  return [](Bytes& frame) {
    if (is_dp_data(frame)) return netsim::TamperVerdict::Drop;
    if (!frame.empty() && frame[0] == hula::kProbeMagic) return netsim::TamperVerdict::Drop;
    return netsim::TamperVerdict::Pass;
  };
}

}  // namespace p4auth::attacks
