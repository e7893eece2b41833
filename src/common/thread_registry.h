// Thread names.
//
// Threads that matter operationally — pool workers, the serve batcher, TCP
// connection handlers — name themselves at entry with SetCurrentThreadName.
// The name is cached thread-locally (so readers on the same thread pay one
// TLS load) and mirrored into the kernel via pthread_setname_np (so
// `top -H`, gdb, and perf show the same names the trace viewer and
// profiler reports do).
//
// Lives in rll_common (below obs in the layering DAG) so both the trace
// exporter and the profiler can stamp thread names without a cycle.

#ifndef RLL_COMMON_THREAD_REGISTRY_H_
#define RLL_COMMON_THREAD_REGISTRY_H_

#include <string>

namespace rll {

/// Names the calling thread. The name is cached thread-locally and pushed
/// to the kernel (truncated to the 15-character pthread limit; the cache
/// keeps the full string). Renaming is allowed; the latest name wins.
void SetCurrentThreadName(const std::string& name);

/// The calling thread's name, "" when it never named itself.
const std::string& CurrentThreadName();

}  // namespace rll

#endif  // RLL_COMMON_THREAD_REGISTRY_H_
