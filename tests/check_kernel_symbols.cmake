# Checks the per-level kernel objects in librll_tensor.a (src/tensor/
# kernels_<level>.cc): each must define exactly one global symbol, its
# table rll::kernels::<level>::Table(), and no weak (W/V) or unique (u)
# symbol at all. An inline function or template that another file also
# compiles would show up here as a weak symbol, and the linker could keep
# its -mavx512f copy for the whole program (src/tensor/kernels.h). Usage:
#   cmake -DNM=nm -DARCHIVE=librll_tensor.a -DLEVELS=baseline,avx2,avx512f \
#         -P check_kernel_symbols.cmake
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
string(REPLACE "," ";" levels "${LEVELS}")
string(REPLACE "\n" ";" lines "${listing}")
set(failures "")
foreach(level IN LISTS levels)
  set(table "rll::kernels::${level}::Table()")
  set(member_seen FALSE)
  set(table_seen FALSE)
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
      if(name STREQUAL table AND NOT table_seen)
        set(table_seen TRUE)
      else()
        list(APPEND failures
          "kernels_${level}: extra global symbol ${type} ${name}")
      endif()
    endif()
  endforeach()
  if(NOT member_seen)
    list(APPEND failures "kernels_${level}: no such object in ${ARCHIVE}")
  elseif(NOT table_seen)
    list(APPEND failures "kernels_${level}: missing ${table}")
  endif()
endforeach()
if(failures)
  string(REPLACE ";" "\n  " report "${failures}")
  message(FATAL_ERROR "kernel object symbols:\n  ${report}")
endif()
message(STATUS "kernel objects define only their Table(): ${LEVELS}")
