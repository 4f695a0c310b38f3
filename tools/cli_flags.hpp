// Flag parsing shared by the command-line tools (p4auth_sim, p4auth_fuzz,
// p4auth_trace). Every flag takes a value, given as "--flag value" or
// "--flag=value". Unknown flags, missing values, stray positional
// arguments and numeric values that do not parse completely are usage
// errors: the tool prints a diagnostic plus its usage and exits 2, so a
// typo never silently runs the defaults.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>

namespace p4auth::cli {

class Flags {
 public:
  /// Flags are argv[first..argc); `usage` prints the tool's usage text.
  Flags(int argc, char** argv, int first, void (*usage)())
      : argc_(argc), argv_(argv), first_(first), usage_(usage) {}

  /// True when every token is a known flag with a value. Otherwise
  /// prints a diagnostic plus usage and returns false.
  bool check(std::initializer_list<const char*> allowed) const {
    for (int i = first_; i < argc_; ++i) {
      const char* token = argv_[i];
      if (std::strncmp(token, "--", 2) != 0) return fail("unexpected argument: %s\n", token);
      const char* eq = std::strchr(token, '=');
      const std::size_t name_len =
          eq != nullptr ? static_cast<std::size_t>(eq - token) : std::strlen(token);
      bool known = false;
      for (const char* flag : allowed) {
        known = known || (std::strlen(flag) == name_len &&
                          std::strncmp(token, flag, name_len) == 0);
      }
      if (!known) {
        std::fprintf(stderr, "unknown flag: %.*s\n", static_cast<int>(name_len), token);
        usage_();
        return false;
      }
      if (eq == nullptr && ++i >= argc_) return fail("missing value for %s\n", token);
    }
    return true;
  }

  /// The value of `flag`, or `fallback` when it is absent.
  const char* value(const char* flag, const char* fallback = nullptr) const {
    const std::size_t flag_len = std::strlen(flag);
    for (int i = first_; i < argc_; ++i) {
      if (std::strcmp(argv_[i], flag) == 0 && i + 1 < argc_) return argv_[i + 1];
      if (std::strncmp(argv_[i], flag, flag_len) == 0 && argv_[i][flag_len] == '=') {
        return argv_[i] + flag_len + 1;
      }
    }
    return fallback;
  }

  /// The unsigned integer value of `flag` in `base` (0 also takes the
  /// 0x-prefixed hex form), or `fallback` when it is absent; exits 2 on
  /// an empty value, a sign, leading blanks, trailing characters or
  /// overflow.
  std::uint64_t u64(const char* flag, std::uint64_t fallback, int base = 10) const {
    const char* text = value(flag);
    if (text == nullptr) return fallback;
    char* end = nullptr;
    errno = 0;
    const std::uint64_t out = std::strtoull(text, &end, base);
    if (text[0] < '0' || text[0] > '9' || *end != '\0' || errno != 0) bad_value(flag, text);
    return out;
  }

  /// The non-negative decimal value of `flag`, or `fallback` when it is
  /// absent; exits 2 when the value does not parse completely or is not
  /// finite.
  double number(const char* flag, double fallback) const {
    const char* text = value(flag);
    if (text == nullptr) return fallback;
    char* end = nullptr;
    errno = 0;
    const double out = std::strtod(text, &end);
    const bool starts_ok = (text[0] >= '0' && text[0] <= '9') || text[0] == '.';
    if (!starts_ok || *end != '\0' || errno != 0 || !std::isfinite(out)) bad_value(flag, text);
    return out;
  }

 private:
  bool fail(const char* format, const char* token) const {
    std::fprintf(stderr, format, token);
    usage_();
    return false;
  }

  [[noreturn]] void bad_value(const char* flag, const char* text) const {
    std::fprintf(stderr, "bad value for %s: %s\n", flag, text);
    usage_();
    std::exit(2);
  }

  int argc_;
  char** argv_;
  int first_;
  void (*usage_)();
};

}  // namespace p4auth::cli
