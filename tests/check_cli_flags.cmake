# Runs rll_cli with flag values it must refuse — integer flags that are
# not integers or are below their minimum, an --eta that is not a finite
# number above 0, --votes above --workers, and --folds above the rows the
# command loaded — and expects each run to exit 2 with a message naming
# the flag. Every run but the --folds one names files in a directory that
# does not exist, so a command that got past its flag checks would fail to
# read or write them and exit 1 instead. Only small values are used: a
# large positive --shards would start that many threads. Usage:
#   cmake -DCLI=rll_cli -P check_cli_flags.cmake
if(NOT DEFINED CLI OR "${CLI}" STREQUAL "")
  message(FATAL_ERROR "check_cli_flags: -DCLI=... is required")
endif()
set(missing "${CMAKE_CURRENT_BINARY_DIR}/no_such_dir/file")
set(serve "serve|--model|${missing}.rll|--corpus|${missing}.csv|--port|0")
set(retrieve
  "retrieve|--features|${missing}.csv|--model|${missing}.rll|--query|3")
set(evaluate
  "evaluate|--features|${missing}.csv|--annotations|${missing}_a.csv")
set(synth "synth|--features|${missing}.csv|--annotations|${missing}_a.csv")
# Each case: the flag whose name the message must carry, then the argv
# with | between arguments.
set(cases
  "shards=${serve}|--shards|-1"
  "shards=${serve}|--shards|0"
  "shards=${serve}|--shards|two"
  "k=${serve}|--k|-1"
  "k=${serve}|--k|0"
  "cache-size=${serve}|--cache-size|-1"
  "max-queue=${serve}|--max-queue|-1"
  "max-queue=${serve}|--max-queue|0"
  "max-batch=${serve}|--max-batch|-1"
  "max-batch=${serve}|--max-batch|0"
  "max-connections=${serve}|--max-connections|0"
  "batch-timeout-us=${serve}|--batch-timeout-us|-1"
  "trace-sample=${serve}|--trace-sample|-1"
  "watch-bundle=${serve}|--watch-bundle|-1"
  "port=${serve}|--port|abc"
  "k=${retrieve}|--k|-2"
  "k=${retrieve}|--k|abc"
  "query=${retrieve}|--query|-1"
  "query=${retrieve}|--query|3x"
  "folds=${evaluate}|--folds|1"
  "epochs=${evaluate}|--epochs|0"
  "groups=${evaluate}|--groups|-1"
  "k-negatives=${evaluate}|--k-negatives|0"
  "seed=${evaluate}|--seed|abc"
  "votes=${synth}|--votes|0"
  "workers=${synth}|--workers|-1"
  "count=top|--port|1|--count|-1"
  "interval-ms=top|--port|1|--interval-ms|-1"
  "threads=${evaluate}|--threads|-1"
  "profile-hz=${evaluate}|--profile-out|${missing}.folded|--profile-hz|0"
  "eta=${evaluate}|--eta|abc"
  "eta=${evaluate}|--eta|0"
  "eta=${evaluate}|--eta|-1"
  "eta=${evaluate}|--eta|nan"
  "eta=${evaluate}|--eta|inf"
  "votes=${synth}|--votes|30"
  "votes=${synth}|--workers|3|--votes|4")
# --folds is checked against the rows the command loads, so its case reads
# real files: the oral preset's 880 rows, one fold too many.
set(oral "${CMAKE_CURRENT_BINARY_DIR}/check_cli_flags_oral")
execute_process(COMMAND "${CLI}" synth --preset oral --features ${oral}.csv
    --annotations ${oral}_a.csv
  OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE status)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "rll_cli synth failed (exit ${status}): ${err}")
endif()
list(APPEND cases
  "folds=evaluate|--features|${oral}.csv|--annotations|${oral}_a.csv|--folds|881")
set(failures "")
foreach(case IN LISTS cases)
  string(FIND "${case}" "=" eq)
  string(SUBSTRING "${case}" 0 ${eq} flag)
  math(EXPR start "${eq} + 1")
  string(SUBSTRING "${case}" ${start} -1 argv)
  string(REPLACE "|" ";" argv "${argv}")
  execute_process(COMMAND "${CLI}" ${argv}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE status)
  string(FIND "${err}" "--${flag}" named)
  if(NOT status STREQUAL "2" OR named EQUAL -1)
    string(REPLACE ";" " " shown "${argv}")
    list(APPEND failures
      "rll_cli ${shown}: exit ${status}, stderr: ${err}")
  endif()
endforeach()
if(failures)
  string(REPLACE ";" "\n" shown "${failures}")
  message(FATAL_ERROR "rll_cli accepted a bad flag value:\n${shown}")
endif()
list(LENGTH cases count)
message(STATUS "rll_cli rejected all ${count} bad flag values with exit 2")
