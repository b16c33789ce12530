// The paper's four circuits (Fig. 6) as shipped .gcir files: their text is
// compiled into the library from specs/circuits/ by embed_circuits.cmake,
// so the registry needs no file at run time.
#pragma once

#include <span>
#include <string_view>

namespace gcnrl::api::detail {

struct ShippedCircuit {
  const char* name;       // the file's `circuit` line
  const char* path;       // repository-relative, the parse origin
  std::string_view text;  // the file's bytes
};

// The table in registry order: Two-TIA, Two-Volt, Three-TIA, LDO.
std::span<const ShippedCircuit> shipped_circuits();

}  // namespace gcnrl::api::detail
