# Runs one of the paper-table harnesses (bench/table1_methods,
# table2_k_sweep, table3_d_sweep) at --threads 4 and compares what it
# prints, less the `total wall time` line, with the copy pinned in
# tests/tables/. A change that moves one printed digit fails here. A change
# that moves digits on purpose re-pins the copy in the same commit: on a
# mismatch this script writes what the harness printed to OUTPUT, ready to
# diff against and copy over the pinned one. Usage:
#   cmake -DBENCH=table1_methods -DEXPECTED=tables/table1_methods.txt \
#         -DOUTPUT=table1_methods.txt -P check_bench_table.cmake
cmake_minimum_required(VERSION 3.16)
foreach(var BENCH EXPECTED OUTPUT)
  if(NOT DEFINED ${var} OR "${${var}}" STREQUAL "")
    message(FATAL_ERROR "check_bench_table: -D${var}=... is required")
  endif()
endforeach()
execute_process(COMMAND "${BENCH}" --threads 4
  OUTPUT_VARIABLE printed ERROR_VARIABLE err RESULT_VARIABLE status)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "${BENCH} --threads 4: exit ${status}, stderr: ${err}")
endif()
# The one line that depends on the host rather than the code.
string(REGEX REPLACE "total wall time:[^\n]*\n" "" printed "${printed}")
file(READ "${EXPECTED}" pinned)
if(NOT printed STREQUAL pinned)
  file(WRITE "${OUTPUT}" "${printed}")
  message(FATAL_ERROR "${BENCH} prints another table than the pinned one; "
    "see the moved lines with\n  diff ${EXPECTED} ${OUTPUT}")
endif()
message(STATUS "${BENCH} prints the table pinned in ${EXPECTED}")
