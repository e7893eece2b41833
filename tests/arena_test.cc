// Tests for the arena-backed memory plane (common/arena.h): alignment
// and Reset() reuse guarantees of the bump allocator, high-water
// accounting, the ScratchAllocator header protocol (heap fallback,
// use-after-reset tripwire), Workspace reuse, global gauge
// registration, TSan-visible concurrent per-worker usage, and the
// end-to-end guarantee the whole subsystem exists for: a steady-state
// RllTrainer batch loop performs zero heap allocations under
// RLL_COUNT_ALLOCS.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "common/arena.h"
#include "common/rng.h"
#include "common/threading.h"
#include "core/rll_trainer.h"
#include "obs/alloc_count.h"
#include "obs/observer.h"
#include "tensor/matrix.h"

namespace rll {
namespace {

bool IsAligned(const void* p) {
  return reinterpret_cast<uintptr_t>(p) % Arena::kAlignment == 0;
}

// ------------------------------------------------------------------- Arena

TEST(ArenaTest, AllocationsAreCacheLineAligned) {
  Arena arena(/*min_chunk_bytes=*/256);
  // Odd sizes force the bump pointer through every rounding case; the
  // small first chunk forces growth across several chunks.
  for (size_t bytes : {1u, 7u, 63u, 64u, 65u, 100u, 256u, 1000u, 4096u}) {
    void* p = arena.Allocate(bytes);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(IsAligned(p)) << "allocation of " << bytes << " bytes";
    // The storage must actually be usable.
    std::memset(p, 0xab, bytes);
  }
  EXPECT_GT(arena.chunk_count(), 1u);
}

TEST(ArenaTest, ResetReusesChunksWithoutGrowth) {
  Arena arena;
  // Warm-up epoch establishes the chunk set.
  auto one_epoch = [&arena] {
    for (int i = 0; i < 50; ++i) arena.Allocate(1024);
  };
  one_epoch();
  arena.Reset();

  const size_t warm_chunks = arena.chunk_count();
  const size_t warm_reserved = arena.bytes_reserved();
  for (int epoch = 0; epoch < 10; ++epoch) {
    one_epoch();
    EXPECT_EQ(arena.chunk_count(), warm_chunks) << "epoch " << epoch;
    EXPECT_EQ(arena.bytes_reserved(), warm_reserved) << "epoch " << epoch;
    arena.Reset();
    EXPECT_EQ(arena.bytes_used(), 0u);
  }
  // The counter keeps counting across Resets (it feeds the gauges), even
  // though no new memory was reserved.
  EXPECT_EQ(arena.allocation_count(), 11u * 50u);
}

TEST(ArenaTest, HighWaterTracksPeakAcrossResets) {
  Arena arena;
  arena.Allocate(1000);
  const size_t first_peak = arena.bytes_used();
  EXPECT_EQ(arena.high_water(), first_peak);

  arena.Reset();
  arena.Allocate(64);
  // A smaller epoch never lowers the peak...
  EXPECT_EQ(arena.high_water(), first_peak);

  arena.Reset();
  arena.Allocate(4000);
  // ...and a bigger one raises it.
  EXPECT_GT(arena.high_water(), first_peak);
  EXPECT_EQ(arena.high_water(), arena.bytes_used());
}

TEST(ArenaTest, OversizedRequestGetsItsOwnChunk) {
  Arena arena(/*min_chunk_bytes=*/128);
  void* small = arena.Allocate(16);
  void* huge = arena.Allocate(1 << 20);  // Far beyond the chunk size.
  ASSERT_NE(huge, nullptr);
  EXPECT_TRUE(IsAligned(small));
  EXPECT_TRUE(IsAligned(huge));
  std::memset(huge, 0, 1 << 20);
  EXPECT_GE(arena.bytes_reserved(), size_t{1} << 20);
}

// ------------------------------------------------------- scopes and routing

TEST(ArenaScopeTest, RoutesNestsAndRestores) {
  EXPECT_EQ(CurrentArena(), nullptr);
  Arena outer_arena;
  Arena inner_arena;
  {
    ArenaScope outer(&outer_arena);
    EXPECT_EQ(CurrentArena(), &outer_arena);
    {
      ArenaScope inner(&inner_arena);
      EXPECT_EQ(CurrentArena(), &inner_arena);
      {
        ArenaPause pause;
        EXPECT_EQ(CurrentArena(), nullptr);
      }
      EXPECT_EQ(CurrentArena(), &inner_arena);
    }
    EXPECT_EQ(CurrentArena(), &outer_arena);
  }
  EXPECT_EQ(CurrentArena(), nullptr);
}

TEST(ScratchAllocatorTest, RoutesToArenaInsideScopeAndHeapOutside) {
  Arena arena;
  {
    ArenaScope scope(&arena);
    ScratchVector<double> v(100, 1.5);
    EXPECT_GT(arena.bytes_used(), 0u);
    EXPECT_DOUBLE_EQ(v[99], 1.5);
  }  // Arena-backed release is a no-op; nothing to free.
  arena.Reset();

  const size_t used_after_reset = arena.bytes_used();
  {
    ScratchVector<double> heap_v(100, 2.5);
    EXPECT_EQ(arena.bytes_used(), used_after_reset);
    EXPECT_TRUE(IsAligned(heap_v.data()));
  }  // Heap-backed release goes through aligned operator delete.
}

TEST(ArenaDeathTest, UseAfterResetTripsTheHeaderCheck) {
  EXPECT_DEATH(
      {
        Arena arena;
        ArenaScope scope(&arena);
        ScratchAllocator<char> alloc;
        alloc.allocate(64);
        char* stale = alloc.allocate(64);
        arena.Reset();
        // The next epoch's first block spans the chunk prefix, including
        // the cache line holding `stale`'s origin header; scribbling over
        // it models a new epoch reusing the bytes.
        char* fresh = alloc.allocate(256);
        std::memset(fresh, 0, 256);
        alloc.deallocate(stale, 64);  // Header is garbage now: must abort.
      },
      "use-after-reset");
}

// --------------------------------------------------------------- Workspace

TEST(WorkspaceTest, CreatesOnFirstUseAndReusesStorage) {
  Workspace ws;
  Matrix& a = ws.GetReshaped("hidden", 4, 8);
  EXPECT_EQ(a.rows(), 4u);
  EXPECT_EQ(a.cols(), 8u);
  a(3, 7) = 42.0;

  Matrix& again = ws.GetReshaped("hidden", 4, 8);
  EXPECT_EQ(&again, &a);  // Same buffer, values intact.
  EXPECT_DOUBLE_EQ(again(3, 7), 42.0);
  EXPECT_EQ(ws.size(), 1u);

  ws.GetReshaped("other", 2, 2);
  EXPECT_EQ(ws.size(), 2u);
}

TEST(WorkspaceTest, GetReshapedCyclesShapesOnOneBuffer) {
  Workspace ws;
  Matrix& big = ws.GetReshaped("stacked", 16, 8);
  const double* warm_data = big.data();
  big.Fill(1.0);

  // Shrinking and growing back within the high-water capacity must keep
  // the same storage — this is what makes the serve batcher's varying
  // batch sizes allocation-free at steady state.
  Matrix& small = ws.GetReshaped("stacked", 3, 8);
  EXPECT_EQ(small.rows(), 3u);
  Matrix& back = ws.GetReshaped("stacked", 16, 8);
  EXPECT_EQ(back.data(), warm_data);
  EXPECT_EQ(ws.size(), 1u);
}

TEST(WorkspaceTest, BuffersAreHeapBackedEvenInsideAScope) {
  Arena arena;
  Workspace ws;
  {
    ArenaScope scope(&arena);
    Matrix& buffer = ws.GetReshaped("persistent", 8, 8);
    buffer(0, 0) = 7.0;
    // The workspace pauses arena routing internally: none of the buffer's
    // bytes may land in the (resettable) arena.
    EXPECT_EQ(arena.bytes_used(), 0u);
  }
  arena.Reset();
  EXPECT_DOUBLE_EQ(ws.GetReshaped("persistent", 8, 8)(0, 0), 7.0);
}

// ------------------------------------------------------------ global gauges

TEST(GlobalArenaStatsTest, TracksArenaLifecycleAndUsage) {
  const ArenaStatsSnapshot before = GlobalArenaStats();
  {
    Arena arena;
    const ArenaStatsSnapshot live = GlobalArenaStats();
    EXPECT_EQ(live.live_arenas, before.live_arenas + 1);

    arena.Allocate(1 << 12);
    const ArenaStatsSnapshot used = GlobalArenaStats();
    EXPECT_GE(used.bytes_used, before.bytes_used + (1 << 12));
    EXPECT_GE(used.bytes_reserved, before.bytes_reserved + (1 << 12));
    EXPECT_GE(used.high_water, before.high_water + (1 << 12));
  }
  EXPECT_EQ(GlobalArenaStats().live_arenas, before.live_arenas);
}

// ------------------------------------------------------------- concurrency

// Each worker owns an arena and a workspace and cycles epochs while the
// main thread polls the global gauges — the ownership model used by the
// serve workers. Run under TSan, this pins the claim that per-arena
// relaxed counters plus the registry mutex make the snapshot race-free.
TEST(ArenaConcurrencyTest, PerWorkerArenasAndWorkspacesAreRaceFree) {
  constexpr int kWorkers = 8;
  constexpr int kEpochs = 200;
  const ArenaStatsSnapshot before = GlobalArenaStats();

  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([w] {
      Arena arena;
      Workspace ws;
      for (int epoch = 0; epoch < kEpochs; ++epoch) {
        {
          ArenaScope scope(&arena);
          ScratchVector<double> scratch(64 + w, 1.0);
          Matrix& buffer = ws.GetReshaped("scratch", 4, 4 + (epoch % 3));
          buffer.Fill(static_cast<double>(epoch));
        }
        arena.Reset();
      }
    });
  }
  // Concurrent gauge scrapes (what metricsz does while workers run).
  for (int scrape = 0; scrape < 100; ++scrape) {
    const ArenaStatsSnapshot s = GlobalArenaStats();
    EXPECT_LE(s.bytes_used, s.bytes_reserved + before.bytes_used);
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(GlobalArenaStats().live_arenas, before.live_arenas);
}

// ----------------------------------------------- trainer zero-alloc proof

// Records the process-wide allocation count at every batch boundary
// without allocating itself (the events vector is pre-reserved).
class AllocSnapshotObserver : public obs::TrainerObserver {
 public:
  struct Event {
    int epoch = 0;
    size_t batch = 0;
    uint64_t allocs = 0;
  };

  explicit AllocSnapshotObserver(size_t max_events) {
    events_.reserve(max_events);
  }

  void OnBatchEnd(const obs::BatchStats& stats) override {
    if (events_.size() < events_.capacity()) {
      events_.push_back(
          {stats.epoch, stats.batch, obs::AllocationCount()});
    }
  }

  const std::vector<Event>& events() const { return events_; }

 private:
  std::vector<Event> events_;
};

// The acceptance criterion of the arena work, asserted end to end: after
// the first epoch has warmed the arena chunks (and every other lazily
// grown buffer), the delta in operator-new calls between consecutive
// batches of an epoch is exactly zero — graph construction, backward,
// gradient-norm observation, optimizer step, and arena reset included.
TEST(TrainerAllocTest, SteadyStateBatchLoopIsAllocationFree) {
  if (!obs::AllocCountingActive()) {
    GTEST_SKIP() << "built without RLL_COUNT_ALLOCS";
  }
  // The guarantee is per-thread arenas at --threads 1 (pool dispatch
  // allocates task state); pin the pool regardless of RLL_THREADS.
  SetGlobalThreads(1);

  constexpr size_t kExamples = 60;
  constexpr size_t kDim = 8;
  Matrix features(kExamples, kDim);
  std::vector<int> labels(kExamples);
  Rng data_rng(1234);
  for (size_t i = 0; i < kExamples; ++i) {
    labels[i] = static_cast<int>(i % 2);
    for (size_t j = 0; j < kDim; ++j) {
      features(i, j) = data_rng.Normal() + (labels[i] == 1 ? 1.0 : -1.0);
    }
  }

  core::RllTrainerOptions options;
  options.model.hidden_dims = {16, 8};
  options.epochs = 3;
  options.groups_per_epoch = 32;  // Divides evenly: every batch is full.
  options.batch_size = 8;
  AllocSnapshotObserver observer(/*max_events=*/64);
  options.observers = {&observer};

  Rng rng(42);
  core::RllTrainer trainer(options, &rng);
  const auto summary = trainer.Train(features, labels,
                                     std::vector<double>(kExamples, 1.0));
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();

  // Compare consecutive batches within an epoch, skipping epoch 0 (chunk
  // growth) and each epoch's first batch (the interval leading into it
  // spans the epoch boundary: group sampling, summary bookkeeping).
  const auto& events = observer.events();
  ASSERT_GE(events.size(), 12u);  // 3 epochs x 4 batches.
  size_t steady_pairs = 0;
  for (size_t i = 1; i < events.size(); ++i) {
    const auto& prev = events[i - 1];
    const auto& cur = events[i];
    if (cur.epoch == 0 || cur.epoch != prev.epoch || cur.batch < 1) continue;
    EXPECT_EQ(cur.allocs - prev.allocs, 0u)
        << "epoch " << cur.epoch << " batch " << cur.batch << " allocated";
    ++steady_pairs;
  }
  // 2 warm epochs x 3 in-epoch deltas: the assertion above really ran.
  EXPECT_EQ(steady_pairs, 6u);

  SetGlobalThreads(0);  // Restore the RLL_THREADS/default pool.
}

}  // namespace
}  // namespace rll
