# Writes the string table of the shipped circuits: one C++ source that
# holds each .gcir file's declared name, path and text, in the given order.
#
#   cmake -DROOT=<repo root> -DFILES=<rel.gcir>,<rel.gcir>,... \
#         -DOUT=<file.cpp> -P embed_circuits.cmake
#
# src/api/CMakeLists.txt runs it whenever a listed file changes; the
# circuit registry seeds its built-ins from the table (shipped_circuits.hpp).
string(REPLACE "," ";" files "${FILES}")
set(rows "")
foreach(rel IN LISTS files)
  file(READ "${ROOT}/${rel}" text)
  if(NOT text MATCHES "(^|\n)circuit[ \t]+([^ \t\r\n#]+)")
    message(FATAL_ERROR "${rel}: no \"circuit NAME\" line")
  endif()
  set(name "${CMAKE_MATCH_2}")
  string(FIND "${text}" ")gcir\"" clash)
  if(NOT clash EQUAL -1)
    message(FATAL_ERROR "${rel}: contains the delimiter )gcir\"")
  endif()
  string(APPEND rows "    {\"${name}\", \"${rel}\", R\"gcir(${text})gcir\"},\n")
endforeach()
file(WRITE "${OUT}"
  "// Generated by src/api/embed_circuits.cmake; do not edit.\n"
  "#include \"api/shipped_circuits.hpp\"\n\n"
  "namespace gcnrl::api::detail {\n\n"
  "namespace {\n\n"
  "constexpr ShippedCircuit kShipped[] = {\n${rows}};\n\n"
  "}  // namespace\n\n"
  "std::span<const ShippedCircuit> shipped_circuits() { return kShipped; }\n\n"
  "}  // namespace gcnrl::api::detail\n")
