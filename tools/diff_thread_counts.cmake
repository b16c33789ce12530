# Thread-count gate: runs `gcnrl_cli SPEC` at GCNRL_EVAL_THREADS=1 and at
# GCNRL_EVAL_THREADS=4 and fails unless the two outputs are byte-identical
# once the `eval engine:` banner line, the one line that names the thread
# count, is removed. With GOLDEN, the output must also equal that file once
# its first line, the spec-path header, is removed too.
#
#   cmake -DCLI=<path to gcnrl_cli> -DSPEC=<spec.json> [-DGOLDEN=<file>] \
#         -P tools/diff_thread_counts.cmake
foreach(threads 1 4)
  set(ENV{GCNRL_EVAL_THREADS} ${threads})
  execute_process(COMMAND "${CLI}" "${SPEC}"
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "gcnrl_cli ${SPEC} failed (${rc}) at GCNRL_EVAL_THREADS=${threads}")
  endif()
  string(REGEX REPLACE "eval engine:[^\n]*\n" "" out_${threads} "${out}")
endforeach()
if(NOT out_1 STREQUAL out_4)
  message(FATAL_ERROR
    "gcnrl_cli ${SPEC}: output differs between 1 and 4 eval threads\n"
    "--- GCNRL_EVAL_THREADS=1\n${out_1}\n--- GCNRL_EVAL_THREADS=4\n${out_4}")
endif()
message(STATUS "gcnrl_cli ${SPEC}: identical at 1 and 4 eval threads")
if(DEFINED GOLDEN)
  file(READ "${GOLDEN}" golden)
  string(FIND "${out_1}" "\n" header_end)
  math(EXPR body_begin "${header_end} + 1")
  string(SUBSTRING "${out_1}" ${body_begin} -1 body)
  if(NOT body STREQUAL golden)
    message(FATAL_ERROR
      "gcnrl_cli ${SPEC}: output differs from ${GOLDEN}\n"
      "--- ${GOLDEN}\n${golden}\n--- gcnrl_cli\n${body}")
  endif()
  message(STATUS "gcnrl_cli ${SPEC}: equal to ${GOLDEN}")
endif()
