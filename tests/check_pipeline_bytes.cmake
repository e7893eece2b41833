# Runs the rll_cli pipeline on both synthetic presets and compares the
# SHA-256 of every output with the manifest pinned in pipeline_bytes.sha256:
# the synthesized features and annotations, the model bundles, the
# embeddings, and the stdout of evaluate (at 1 and at 4 threads), retrieve
# and aggregate. A change that moves one bit of any of them fails here. A
# change that moves bits on purpose re-pins the manifest in the same commit:
# on a mismatch this script writes the manifest it computed to
# WORK_DIR/computed.sha256, ready to copy over the pinned one. Usage:
#   cmake -DCLI=rll_cli -DMANIFEST=pipeline_bytes.sha256 -DWORK_DIR=dir \
#         -P check_pipeline_bytes.cmake
foreach(var CLI MANIFEST WORK_DIR)
  if(NOT DEFINED ${var} OR "${${var}}" STREQUAL "")
    message(FATAL_ERROR "check_pipeline_bytes: -D${var}=... is required")
  endif()
endforeach()
# The steps run in WORK_DIR: resolve a relative CLI before they do.
get_filename_component(CLI "${CLI}" ABSOLUTE)
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(oral "--features|oral.csv|--annotations|oral_a.csv")
set(class "--features|class.csv|--annotations|class_a.csv")
set(evaluate "evaluate|${oral}|--folds|3|--epochs|6")
# Each step: its argv with | between arguments, run in WORK_DIR; a
# trailing >FILE writes the command's stdout to FILE.
set(steps
  "synth|--preset|oral|--seed|3|${oral}"
  "synth|--preset|class|--seed|3|${class}"
  "train|${oral}|--mode|bayesian|--epochs|4|--model|oral.rll"
  "train|${class}|--mode|worker|--epochs|4|--model|class.rll"
  "${evaluate}|--threads|1>evaluate_threads1.txt"
  "${evaluate}|--threads|4>evaluate_threads4.txt"
  "embed|--features|oral.csv|--model|oral.rll|--output|oral_embed.csv"
  "embed|--features|class.csv|--model|class.rll|--output|class_embed.csv"
  "retrieve|--features|oral.csv|--model|oral.rll|--query|3|--k|5>retrieve.txt"
  "aggregate|${oral}|--method|glad>aggregate_glad.txt")
# The outputs, in the manifest's order.
set(outputs oral.csv oral_a.csv class.csv class_a.csv oral.rll class.rll
  evaluate_threads1.txt evaluate_threads4.txt oral_embed.csv class_embed.csv
  retrieve.txt aggregate_glad.txt)
foreach(step IN LISTS steps)
  set(stdout_file "/dev/null")
  if(step MATCHES "^(.*)>([^>|]+)$")
    set(step "${CMAKE_MATCH_1}")
    set(stdout_file "${WORK_DIR}/${CMAKE_MATCH_2}")
  endif()
  string(REPLACE "|" ";" argv "${step}")
  execute_process(COMMAND "${CLI}" ${argv} WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_FILE "${stdout_file}" ERROR_VARIABLE err RESULT_VARIABLE status)
  if(NOT status STREQUAL "0")
    string(REPLACE ";" " " shown "${argv}")
    message(FATAL_ERROR "rll_cli ${shown}: exit ${status}, stderr: ${err}")
  endif()
endforeach()
file(READ "${MANIFEST}" pinned)
set(computed "")
set(moved "")
foreach(output IN LISTS outputs)
  file(SHA256 "${WORK_DIR}/${output}" hash)
  set(line "${hash}  ${output}\n")
  string(APPEND computed "${line}")
  string(FIND "${pinned}" "${line}" at)
  if(at EQUAL -1)
    list(APPEND moved "${output}")
  endif()
endforeach()
if(NOT computed STREQUAL pinned)
  file(WRITE "${WORK_DIR}/computed.sha256" "${computed}")
  string(REPLACE ";" " " moved "${moved}")
  message(FATAL_ERROR "pipeline outputs differ from ${MANIFEST}: ${moved}. "
    "The outputs and their manifest are in ${WORK_DIR} (computed.sha256).")
endif()
list(LENGTH outputs count)
message(STATUS "all ${count} pipeline outputs match ${MANIFEST}")
