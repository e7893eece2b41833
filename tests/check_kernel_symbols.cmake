# Checks the per-level kernel objects in librll_tensor.a (src/tensor/
# kernels_<level>.cc): each must define the thirteen entry points
# rll::kernels::<level>::{GemmRows, Tanh, Exp, Sigmoid, LogisticProba,
# LogisticGradient, Add, AddBias, AddBiasTanh, TanhGrad, ColSum,
# RowCosineGrad, AdamStep} and no other global symbol, and no weak (W/V) or
# unique (u) symbol at all. An inline function or template that another
# file also compiles would show up here as a weak symbol, and the linker
# could keep its -mavx512f copy for the whole program (src/tensor/
# kernels.h). Usage:
#   cmake -DNM=nm -DARCHIVE=librll_tensor.a -DLEVELS=baseline,avx2,avx512f \
#         -P check_kernel_symbols.cmake
cmake_policy(SET CMP0057 NEW)  # if(... IN_LIST ...)
foreach(var NM ARCHIVE LEVELS)
  if(NOT DEFINED ${var} OR "${${var}}" STREQUAL "")
    message(FATAL_ERROR "check_kernel_symbols: -D${var}=... is required")
  endif()
endforeach()
execute_process(COMMAND "${NM}" -A -C --defined-only "${ARCHIVE}"
  OUTPUT_VARIABLE listing ERROR_VARIABLE nm_error RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${NM} failed on ${ARCHIVE}: ${nm_error}")
endif()
set(entry_points GemmRows Tanh Exp Sigmoid LogisticProba LogisticGradient
  Add AddBias AddBiasTanh TanhGrad ColSum RowCosineGrad AdamStep)
string(REPLACE "," ";" levels "${LEVELS}")
string(REPLACE "\n" ";" lines "${listing}")
set(failures "")
foreach(level IN LISTS levels)
  set(found "")
  set(member_seen FALSE)
  foreach(line IN LISTS lines)
    # <archive>:<member>:<value> <type> <name>
    if(NOT line MATCHES ":kernels_${level}\\.[^:]*:[0-9a-fA-F]* (.) (.*)$")
      continue()
    endif()
    set(member_seen TRUE)
    set(type "${CMAKE_MATCH_1}")
    set(name "${CMAKE_MATCH_2}")
    if(type MATCHES "^[WwVvu]$")
      list(APPEND failures
        "kernels_${level}: weak or unique symbol ${type} ${name}")
    elseif(type MATCHES "^[A-Z]$")
      set(entry "")
      if(name MATCHES "^rll::kernels::${level}::([A-Za-z]+)\\(")
        set(entry "${CMAKE_MATCH_1}")
      endif()
      if(entry IN_LIST entry_points)
        list(APPEND found "${entry}")
      else()
        list(APPEND failures
          "kernels_${level}: extra global symbol ${type} ${name}")
      endif()
    endif()
  endforeach()
  if(NOT member_seen)
    list(APPEND failures "kernels_${level}: no such object in ${ARCHIVE}")
  else()
    foreach(entry IN LISTS entry_points)
      if(NOT entry IN_LIST found)
        list(APPEND failures "kernels_${level}: missing ${entry}")
      endif()
    endforeach()
  endif()
endforeach()
if(failures)
  string(REPLACE ";" "\n  " report "${failures}")
  message(FATAL_ERROR "kernel object symbols:\n  ${report}")
endif()
message(STATUS "kernel objects define only their entry points: ${LEVELS}")
