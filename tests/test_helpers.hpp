// Shared helpers for the test suites (not part of the installed API).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace gcnrl::testing {

// FNV-1a over raw bytes: the digest the bit-for-bit tests pin results to.
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

inline std::uint64_t fnv1a(std::uint64_t h, const void* data,
                           std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  return fnv1a(h, s.data(), s.size());
}

// RAII helper: sets an environment variable for one test and restores the
// previous value (or unsets) on destruction, so suites stay order-independent.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  bool had_old_ = false;
  std::string old_;
};

}  // namespace gcnrl::testing
