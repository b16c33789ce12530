#include "common/envcfg.hpp"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>

namespace gcnrl {

int env_int(const char* name, int fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  // Strict parse: the whole value (modulo surrounding whitespace) must be
  // one in-range base-10 integer. Anything else — "abc", "12abc", "1.5",
  // out-of-range — is a configuration mistake that must not be silently
  // absorbed: warn on stderr and fall back to the default.
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(raw, &end, 10);
  // No-conversion must be detected BEFORE skipping trailing whitespace: a
  // whitespace-only value leaves end == raw, and advancing end first would
  // let it masquerade as a clean parse of 0.
  const bool converted = end != raw;
  while (end != nullptr && std::isspace(static_cast<unsigned char>(*end))) {
    ++end;
  }
  if (!converted || (end != nullptr && *end != '\0') || errno == ERANGE ||
      v < INT_MIN || v > INT_MAX) {
    std::fprintf(stderr,
                 "gcnrl: ignoring malformed %s=\"%s\" (expected an "
                 "integer); using %d\n",
                 name, raw, fallback);
    return fallback;
  }
  return static_cast<int>(v);
}

}  // namespace gcnrl
