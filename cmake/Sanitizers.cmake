# Sanitizer wiring for every target in the build.
#
# RLL_SANITIZE is a semicolon-separated list of sanitizers to enable:
#
#   cmake -B build-asan -S . -DRLL_SANITIZE="address;undefined"
#   cmake -B build-tsan -S . -DRLL_SANITIZE=thread
#
# Supported values: address, undefined, thread, leak. `address;undefined`
# is the everyday correctness combo; `thread` is mutually exclusive with
# `address`/`leak` (the runtimes cannot coexist in one process).
#
# Flags are applied globally (add_compile_options/add_link_options) so that
# every object file — library, test, bench, example — is instrumented;
# mixing instrumented and uninstrumented TUs yields false negatives for ASan
# and false positives for TSan.
#
# Suppression files live in tools/sanitizers/. Runtime defaults
# (halt_on_error, leak suppressions) are compiled into the binaries via
# src/common/sanitizer_options.cc so that bare `ctest` runs are clean
# without any environment setup.

set(RLL_SANITIZE "" CACHE STRING
    "Semicolon-separated sanitizers to enable (address;undefined;thread;leak)")

if(NOT RLL_SANITIZE)
  return()
endif()

set(_rll_san_known address undefined thread leak)
set(_rll_san_flags "")
foreach(_san IN LISTS RLL_SANITIZE)
  if(NOT _san IN_LIST _rll_san_known)
    message(FATAL_ERROR
        "RLL_SANITIZE: unknown sanitizer '${_san}'. "
        "Supported: address, undefined, thread, leak "
        "(combine with semicolons, e.g. -DRLL_SANITIZE=\"address;undefined\").")
  endif()
  list(APPEND _rll_san_flags "-fsanitize=${_san}")
endforeach()

if("thread" IN_LIST RLL_SANITIZE AND
   ("address" IN_LIST RLL_SANITIZE OR "leak" IN_LIST RLL_SANITIZE))
  message(FATAL_ERROR
      "RLL_SANITIZE: 'thread' cannot be combined with 'address' or 'leak' — "
      "the runtimes are mutually exclusive. Configure separate build trees.")
endif()

message(STATUS "RLL: sanitizers enabled: ${RLL_SANITIZE}")

# Sane stacks in reports; keep frame pointers and some debug info even if
# the build type itself would omit them.
list(APPEND _rll_san_flags -fno-omit-frame-pointer -g)

# UBSan: make alignment/vptr issues fatal rather than printed-and-ignored,
# so ctest actually fails on a report. GCC's `undefined` group leaves out
# float-cast-overflow (a double converted to an integer type it does not
# fit), which untrusted wire numbers can reach, so it is added by name.
if("undefined" IN_LIST RLL_SANITIZE)
  list(APPEND _rll_san_flags -fsanitize=float-cast-overflow
       -fno-sanitize-recover=undefined,float-cast-overflow)
endif()

add_compile_options(${_rll_san_flags})
add_link_options(${_rll_san_flags})

# Expose the active set to the code (sanitizer_options.cc registers default
# runtime options only when a sanitizer is actually linked in).
if("address" IN_LIST RLL_SANITIZE OR "leak" IN_LIST RLL_SANITIZE)
  add_compile_definitions(RLL_SANITIZE_LEAK_AWARE=1)
endif()
if("undefined" IN_LIST RLL_SANITIZE)
  add_compile_definitions(RLL_SANITIZE_UNDEFINED=1)
endif()
if("thread" IN_LIST RLL_SANITIZE)
  add_compile_definitions(RLL_SANITIZE_THREAD=1)
endif()
