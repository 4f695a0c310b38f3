// Minimal expected-style Result<T, E> (std::expected is C++23; we target
// C++20). Only the operations the codebase needs — no monadic extras.
#pragma once

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace p4auth {

/// Error payload used across the library: a human-readable message (no
/// machine-readable code yet).
struct Error {
  std::string message;
};

inline Error make_error(std::string msg) { return Error{std::move(msg)}; }

/// Result<T, E>: holds either a value or an error. Precondition on value()
/// / error(): the corresponding alternative is active (checked by assert).
template <typename T, typename E = Error>
class [[nodiscard]] Result {
 public:
  Result(T value) : data_(std::in_place_index<0>, std::move(value)) {}
  Result(E error) : data_(std::in_place_index<1>, std::move(error)) {}

  bool ok() const noexcept { return data_.index() == 0; }
  explicit operator bool() const noexcept { return ok(); }

  T& value() & {
    assert(ok());
    return std::get<0>(data_);
  }
  const T& value() const& {
    assert(ok());
    return std::get<0>(data_);
  }
  T&& value() && {
    assert(ok());
    return std::get<0>(std::move(data_));
  }

  const E& error() const& {
    assert(!ok());
    return std::get<1>(data_);
  }

  T value_or(T fallback) const& { return ok() ? std::get<0>(data_) : std::move(fallback); }

 private:
  std::variant<T, E> data_;
};

/// Result specialization for operations with no value payload.
template <typename E>
class [[nodiscard]] Result<void, E> {
 public:
  Result() = default;
  Result(E error) : error_(std::move(error)), ok_(false) {}

  bool ok() const noexcept { return ok_; }
  explicit operator bool() const noexcept { return ok_; }

  const E& error() const& {
    assert(!ok_);
    return error_;
  }

 private:
  E error_{};
  bool ok_ = true;
};

using Status = Result<void, Error>;

/// The outcome of `result` without its value.
template <typename T, typename E>
Result<void, E> status_of(const Result<T, E>& result) {
  if (result.ok()) return {};
  return result.error();
}

}  // namespace p4auth
