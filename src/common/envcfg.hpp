// Environment-variable configuration: the one parser behind the
// evaluation engine's knobs (GCNRL_EVAL_THREADS, GCNRL_EVAL_CACHE; see
// env/eval_service.hpp). Experiment scale is never read from the
// environment: a spec file states it (specs/paper/).
#pragma once

namespace gcnrl {

// Integer environment variable with default. Malformed values ("abc",
// "12abc", "1.5", out-of-int-range) never parse silently: they emit a
// one-line warning on stderr and fall back to `fallback`. Unset or empty
// values fall back silently.
int env_int(const char* name, int fallback);

}  // namespace gcnrl
