// Arena-backed scratch memory for the training and serving hot loops.
//
// Three cooperating pieces:
//
//   Arena          — a bump-pointer allocator over 64-byte-aligned chunks.
//                    Allocation is a pointer increment; Reset() reclaims
//                    everything at once and keeps the chunks for reuse, so
//                    a steady-state loop (one batch, one request) touches
//                    the system allocator zero times after warm-up.
//   ArenaScope     — routes ScratchAllocator allocations on the current
//                    thread into an Arena for the scope's lifetime. The
//                    trainer opens one scope per batch: every autograd
//                    node, gradient, and tensor temporary built inside it
//                    lands in the arena and is reclaimed by one Reset().
//   Workspace      — keyed, reusable buffers for code that wants named
//                    scratch (Mlp::EmbedInto, the serve micro-batcher)
//                    rather than a per-iteration scope.
//                    Buffers are deliberately heap-backed (never arena)
//                    because they outlive any scope.
//
// Ownership and thread model: an Arena is single-owner — exactly one
// thread allocates from and resets a given arena (the trainer's batch
// arena lives on the training thread; each serve worker owns its own
// Workspace). Per-arena usage counters are relaxed atomics so the
// process-wide gauge snapshot (GlobalArenaStats, exported via metricsz)
// may read them from another thread without a data race; the registry of
// live arenas is guarded by an annotated rll::Mutex per the repo's lock
// discipline. Nothing here adds cross-thread ordering: arenas do not
// change what is computed, only where the bytes live, so bitwise
// determinism at every thread count is preserved by construction.
//
// Lifetime contract (the one rule): memory obtained through a
// ScratchAllocator while a scope is active must be released — or simply
// abandoned — before the arena's next Reset() reuses it. Every
// allocation carries a one-cache-line header tagging its origin;
// releasing arena-backed memory is a no-op, and releasing it after the
// header has been overwritten by a new epoch trips a loud RLL_CHECK
// instead of corrupting the heap.

#ifndef RLL_COMMON_ARENA_H_
#define RLL_COMMON_ARENA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"

namespace rll {

class Arena {
 public:
  /// Every allocation (and every chunk base) is aligned to this many
  /// bytes — one cache line, and enough for any planned SIMD kernel.
  static constexpr size_t kAlignment = 64;

  /// `min_chunk_bytes` sizes the first chunk; later chunks double until
  /// kMaxChunkBytes. A request larger than the current chunk gets a chunk
  /// of its own size, so arbitrarily large matrices still work.
  explicit Arena(size_t min_chunk_bytes = size_t{1} << 16);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `bytes` (rounded up to kAlignment), 64-byte aligned.
  /// Never returns nullptr; grows by appending chunks.
  void* Allocate(size_t bytes);

  /// Reclaims every allocation at once; keeps the chunks, so the next
  /// epoch of identical shape allocates purely by pointer bumps.
  void Reset();

  /// Live bytes handed out since the last Reset().
  size_t bytes_used() const {
    return bytes_used_.load(std::memory_order_relaxed);
  }
  /// Total chunk capacity owned by this arena.
  size_t bytes_reserved() const {
    return bytes_reserved_.load(std::memory_order_relaxed);
  }
  /// Largest bytes_used() ever observed (across Resets).
  size_t high_water() const {
    return high_water_.load(std::memory_order_relaxed);
  }
  /// Allocations served since construction (across Resets).
  uint64_t allocation_count() const {
    return allocation_count_.load(std::memory_order_relaxed);
  }
  size_t chunk_count() const { return chunks_.size(); }

 private:
  struct Chunk {
    std::byte* base = nullptr;
    size_t capacity = 0;
    size_t used = 0;
  };

  /// Ensures chunks_[active_] can hold `bytes`, appending a chunk if no
  /// existing one fits.
  void EnsureRoom(size_t bytes);

  std::vector<Chunk> chunks_;
  size_t active_ = 0;
  size_t next_chunk_bytes_;
  // Relaxed atomics: written only by the owning thread, readable by the
  // metrics snapshot without a lock.
  std::atomic<size_t> bytes_used_{0};
  std::atomic<size_t> bytes_reserved_{0};
  std::atomic<size_t> high_water_{0};
  std::atomic<uint64_t> allocation_count_{0};
};

/// The arena (if any) that ScratchAllocator routes to on this thread.
Arena* CurrentArena();

/// Routes this thread's ScratchAllocator allocations into `arena` for the
/// scope's lifetime. Nests: the previous arena (or none) is restored on
/// destruction.
class ArenaScope {
 public:
  explicit ArenaScope(Arena* arena);
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena* prev_;
};

/// Temporarily suspends arena routing (allocations go to the heap), for
/// objects that must outlive any enclosing scope — Workspace buffers use
/// this so a workspace touched inside a scope can never dangle.
class ArenaPause {
 public:
  ArenaPause();
  ~ArenaPause();
  ArenaPause(const ArenaPause&) = delete;
  ArenaPause& operator=(const ArenaPause&) = delete;

 private:
  Arena* prev_;
};

namespace arena_internal {
// Origin tags written into the header cache line ahead of every scratch
// allocation. Anything else found at deallocation time means the bytes
// were reused after a Reset — a use-after-reset bug worth aborting on.
inline constexpr uint64_t kHeapMagic = 0x52'4c'4c'48'45'41'50'31ull;
inline constexpr uint64_t kArenaMagic = 0x52'4c'4c'41'52'45'4e'41ull;
}  // namespace arena_internal

/// Standard allocator that draws from the thread's current Arena when an
/// ArenaScope is active and from the aligned heap otherwise. Stateless:
/// any instance can release any other instance's memory, because each
/// allocation's header records where it came from. Both paths return
/// 64-byte-aligned storage, so Matrix data is SIMD-ready everywhere.
template <typename T>
class ScratchAllocator {
 public:
  using value_type = T;
  static_assert(alignof(T) <= Arena::kAlignment,
                "over-aligned types need a bigger arena alignment");

  ScratchAllocator() = default;
  template <typename U>
  ScratchAllocator(const ScratchAllocator<U>&) {}  // NOLINT(runtime/explicit)

  T* allocate(size_t n) {
    const size_t bytes = n * sizeof(T) + Arena::kAlignment;
    std::byte* raw;
    uint64_t magic;
    if (Arena* arena = CurrentArena()) {
      raw = static_cast<std::byte*>(arena->Allocate(bytes));
      magic = arena_internal::kArenaMagic;
    } else {
      raw = static_cast<std::byte*>(::operator new(  // rll-lint: allow(naked-new-delete)
          bytes, std::align_val_t{Arena::kAlignment}));
      magic = arena_internal::kHeapMagic;
    }
    *reinterpret_cast<uint64_t*>(raw) = magic;
    return reinterpret_cast<T*>(raw + Arena::kAlignment);
  }

  void deallocate(T* p, size_t /*n*/) noexcept {
    std::byte* raw = reinterpret_cast<std::byte*>(p) - Arena::kAlignment;
    const uint64_t magic = *reinterpret_cast<const uint64_t*>(raw);
    if (magic == arena_internal::kHeapMagic) {
      ::operator delete(raw, std::align_val_t{Arena::kAlignment});  // rll-lint: allow(naked-new-delete)
      return;
    }
    // Arena memory is reclaimed wholesale by Arena::Reset(); a header that
    // matches neither tag means the bytes were already recycled.
    RLL_CHECK_MSG(magic == arena_internal::kArenaMagic,
                  "scratch buffer released after its arena was reset and "
                  "reused (use-after-reset)");
  }

  bool operator==(const ScratchAllocator&) const { return true; }
  bool operator!=(const ScratchAllocator&) const { return false; }
};

/// Vector whose storage follows the scope rules above — the container of
/// choice for per-batch index lists and autograd bookkeeping.
template <typename T>
using ScratchVector = std::vector<T, ScratchAllocator<T>>;

/// Process-wide arena gauges for metricsz / bench reporting.
struct ArenaStatsSnapshot {
  size_t live_arenas = 0;
  size_t bytes_used = 0;
  size_t bytes_reserved = 0;
  size_t high_water = 0;
};
ArenaStatsSnapshot GlobalArenaStats();

/// Keyed, reusable buffers. `BufferT` is any type with Reshape(rows, cols)
/// — in practice rll::Matrix; the template keeps this header below
/// tensor/ in the layering DAG. Buffers are created on first use and
/// reused (capacity and all) thereafter; they are always heap-backed via
/// ArenaPause, so a workspace is safe to touch from inside any
/// ArenaScope. A Workspace is single-owner, like the per-worker instances
/// in src/serve/.
template <typename BufferT>
class BasicWorkspace {
 public:
  /// Checks out the buffer under `key` as rows×cols, creating it on first
  /// use. Shapes may vary call to call (e.g. the serve batcher's stacked
  /// matrix, whose row count is the batch size); Reshape preserves
  /// capacity, so steady-state reuse does not allocate.
  BufferT& GetReshaped(std::string_view key, size_t rows, size_t cols) {
    ArenaPause pause;
    BufferT& buffer = Slot(key);
    buffer.Reshape(rows, cols);
    return buffer;
  }

  size_t size() const { return buffers_.size(); }

 private:
  BufferT& Slot(std::string_view key) {
    // Transparent find: steady-state lookups build no std::string.
    auto it = buffers_.find(key);
    if (it == buffers_.end()) {
      it = buffers_.emplace(std::string(key), BufferT()).first;
    }
    return it->second;
  }

  std::map<std::string, BufferT, std::less<>> buffers_;
};

}  // namespace rll

#endif  // RLL_COMMON_ARENA_H_
