#include "common/thread_registry.h"

#include <pthread.h>

#include <cstring>

namespace rll {

namespace {

std::string& LocalName() {
  thread_local std::string name;
  return name;
}

}  // namespace

void SetCurrentThreadName(const std::string& name) {
  LocalName() = name;
  // The kernel caps thread names at 16 bytes including the terminator;
  // the thread-local cache keeps the full string.
  char truncated[16];
  std::strncpy(truncated, name.c_str(), sizeof(truncated) - 1);
  truncated[sizeof(truncated) - 1] = '\0';
  pthread_setname_np(pthread_self(), truncated);
}

const std::string& CurrentThreadName() { return LocalName(); }

}  // namespace rll
