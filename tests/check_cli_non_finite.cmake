# Runs `rll_cli train` on an oral features file whose first cell is a
# token strtod reads as NaN or infinity (nan, inf, 1e999) and expects
# each run to exit 1 with the loader's "bad double" error and to write no
# model bundle. Usage:
#   cmake -DCLI=rll_cli -P check_cli_non_finite.cmake
if(NOT DEFINED CLI OR "${CLI}" STREQUAL "")
  message(FATAL_ERROR "check_cli_non_finite: -DCLI=... is required")
endif()
set(dir "${CMAKE_CURRENT_BINARY_DIR}/check_cli_non_finite")
file(REMOVE_RECURSE "${dir}")
file(MAKE_DIRECTORY "${dir}")
execute_process(COMMAND "${CLI}" synth --preset oral
    --features ${dir}/oral.csv --annotations ${dir}/oral_a.csv
  OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE status)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "rll_cli synth failed (exit ${status}): ${err}")
endif()
file(READ "${dir}/oral.csv" features)
# The header ends at the first newline; the first data cell ends at the
# comma after it.
string(FIND "${features}" "\n" header_end)
math(EXPR cell_begin "${header_end} + 1")
string(SUBSTRING "${features}" ${cell_begin} -1 rest)
string(FIND "${rest}" "," cell_length)
math(EXPR tail_begin "${cell_begin} + ${cell_length}")
string(SUBSTRING "${features}" 0 ${cell_begin} head)
string(SUBSTRING "${features}" ${tail_begin} -1 tail)
set(failures "")
foreach(token nan inf 1e999)
  file(WRITE "${dir}/bad_${token}.csv" "${head}${token}${tail}")
  set(model "${dir}/bad_${token}.rll")
  execute_process(COMMAND "${CLI}" train --features ${dir}/bad_${token}.csv
      --annotations ${dir}/oral_a.csv --model ${model} --epochs 1
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE status)
  string(FIND "${err}" "row 2 col 0: bad double '${token}'" named)
  if(NOT status STREQUAL "1" OR named EQUAL -1 OR EXISTS "${model}")
    list(APPEND failures "${token}: exit ${status}, stderr: ${err}")
  endif()
endforeach()
if(failures)
  string(REPLACE ";" "\n" shown "${failures}")
  message(FATAL_ERROR "rll_cli train accepted a non-finite feature:\n${shown}")
endif()
message(STATUS "rll_cli train refused nan, inf and 1e999 with exit 1")
