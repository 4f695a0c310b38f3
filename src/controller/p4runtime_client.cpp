#include "controller/p4runtime_client.hpp"

namespace p4auth::controller {

P4RuntimeClient::P4RuntimeClient(netsim::Simulator& sim, netsim::Switch& sw)
    : P4RuntimeClient(sim, sw, Timing{}) {}

SimTime P4RuntimeClient::round_trip(SimTime compose, std::size_t request_bytes) noexcept {
  const SimTime nominal = compose + timing_.channel.to_switch_delay(request_bytes) +
                          timing_.switch_stack +
                          timing_.channel.to_controller_delay(timing_.response_bytes) +
                          timing_.parse_response;
  if (timing_.jitter_fraction <= 0) return nominal;
  const double scale = 1.0 + timing_.jitter_fraction * (jitter_rng_.next_double() - 0.5);
  return SimTime::from_ns(
      static_cast<std::uint64_t>(static_cast<double>(nominal.ns()) * scale));
}

void P4RuntimeClient::read(const std::string& reg_name, std::size_t index,
                           std::function<void(Result<std::uint64_t>)> done) {
  const SimTime rct = round_trip(timing_.compose_read, timing_.read_request_bytes);
  // The SDK touches the register below the data-plane program; the value
  // is captured at request-arrival time.
  const SimTime at_switch = timing_.compose_read +
                            timing_.channel.to_switch_delay(timing_.read_request_bytes) +
                            timing_.switch_stack;
  auto* reg = switch_.registers().by_name(reg_name);
  if (reg == nullptr) {
    sim_.after(rct, [done = std::move(done)]() { done(make_error("no such register")); });
    return;
  }
  sim_.after(at_switch, [this, reg, index, rct, at_switch, done = std::move(done)]() {
    auto value = reg->read(index);
    sim_.after(rct - at_switch, [value = std::move(value), done = std::move(done)]() {
      if (!value.ok()) {
        done(value.error());
        return;
      }
      done(value.value());
    });
  });
}

void P4RuntimeClient::write(const std::string& reg_name, std::size_t index, std::uint64_t value,
                            std::function<void(Status)> done) {
  const SimTime rct = round_trip(timing_.compose_write, timing_.write_request_bytes);
  const SimTime at_switch = timing_.compose_write +
                            timing_.channel.to_switch_delay(timing_.write_request_bytes) +
                            timing_.switch_stack;
  auto* reg = switch_.registers().by_name(reg_name);
  if (reg == nullptr) {
    sim_.after(rct, [done = std::move(done)]() { done(make_error("no such register")); });
    return;
  }
  sim_.after(at_switch, [this, reg, index, value, rct, at_switch, done = std::move(done)]() {
    const Status status = reg->write(index, value);
    sim_.after(rct - at_switch, [status, done = std::move(done)]() { done(status); });
  });
}

}  // namespace p4auth::controller
