// Counts the heap allocations of a test binary, so a test can check that
// a call allocates nothing, or no more for a longer run. It replaces the
// global operator new and delete: include it from exactly one translation
// unit per test binary.
#pragma once

#include <atomic>
#include <cstdlib>
#include <new>

namespace gcnrl::testing {
inline std::atomic<long> g_heap_allocs{0};
}  // namespace gcnrl::testing

// Kept out of line so the compiler does not pair an inlined free() with a
// new-expression at call sites.
[[gnu::noinline]] void* operator new(std::size_t size) {
  gcnrl::testing::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
