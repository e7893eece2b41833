// Unit tests for the deterministic parallel execution core: thread-pool
// lifecycle, exact ParallelFor coverage, exception propagation, nested
// inlining, ParallelReduce vs serial reduction, and bitwise equality of
// parallel kernels across pool sizes.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "common/threading.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "kernel_isa_expect.h"

namespace rll {
namespace {

// Restores the RLL_THREADS / serial default when a test scope ends, so
// tests that resize the global pool cannot leak a size into later tests.
struct GlobalThreadsGuard {
  ~GlobalThreadsGuard() { SetGlobalThreads(0); }
};

// ---------------------------------------------------------------- lifecycle

TEST(ThreadPoolTest, ConstructsAndJoinsCleanly) {
  for (size_t n : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(n);
    EXPECT_EQ(pool.num_threads(), n);
  }  // Destructor joins; the test passes if nothing hangs or crashes.
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> runs{0};
  pool.ParallelFor(0, 10, 1, [&](size_t lo, size_t hi) {
    runs += static_cast<int>(hi - lo);
  });
  EXPECT_EQ(runs.load(), 10);
}

TEST(ThreadPoolTest, RepeatedUseAfterIdle) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(0, 100, 7, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) sum += i;
    });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

// ---------------------------------------------------------------- coverage

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (size_t n : {0u, 1u, 5u, 64u, 1000u}) {
    for (size_t grain : {1u, 3u, 64u, 10000u}) {
      std::vector<std::atomic<int>> hits(n);
      pool.ParallelFor(0, n, grain, [&](size_t lo, size_t hi) {
        ASSERT_LE(lo, hi);
        ASSERT_LE(hi - lo, std::max<size_t>(grain, 1));
        for (size_t i = lo; i < hi; ++i) hits[i]++;
      });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i << " grain " << grain;
      }
    }
  }
}

TEST(ThreadPoolTest, NonZeroBeginIsRespected) {
  ThreadPool pool(2);
  std::set<size_t> seen;
  std::mutex mu;
  pool.ParallelFor(10, 25, 4, [&](size_t lo, size_t hi) {
    std::lock_guard<std::mutex> lock(mu);
    for (size_t i = lo; i < hi; ++i) seen.insert(i);
  });
  EXPECT_EQ(seen.size(), 15u);
  EXPECT_EQ(*seen.begin(), 10u);
  EXPECT_EQ(*seen.rbegin(), 24u);
}

TEST(ThreadPoolTest, EmptyRangeRunsNothing) {
  ThreadPool pool(2);
  std::atomic<int> runs{0};
  pool.ParallelFor(5, 5, 1, [&](size_t, size_t) { runs++; });
  pool.ParallelFor(7, 3, 1, [&](size_t, size_t) { runs++; });
  EXPECT_EQ(runs.load(), 0);
}

// ---------------------------------------------------------------- exceptions

TEST(ThreadPoolTest, ExceptionFromChunkPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 100, 1,
                       [&](size_t lo, size_t) {
                         if (lo == 37) throw std::runtime_error("chunk 37");
                       }),
      std::runtime_error);
  // The pool must remain usable after an exception.
  std::atomic<int> runs{0};
  pool.ParallelFor(0, 8, 1, [&](size_t, size_t) { runs++; });
  EXPECT_EQ(runs.load(), 8);
}

TEST(ThreadPoolTest, ExceptionOnSerialInlinePathPropagates) {
  ThreadPool pool(1);  // Size-1 pool runs everything inline.
  EXPECT_THROW(pool.ParallelFor(0, 4, 1,
                                [&](size_t, size_t) {
                                  throw std::runtime_error("inline");
                                }),
               std::runtime_error);
}

// ---------------------------------------------------------------- nesting

TEST(ThreadPoolTest, WorkerIdentityIsVisibleInsideTasks) {
  EXPECT_EQ(ThreadPool::CurrentWorkerId(), -1);
  ThreadPool pool(3);
  EXPECT_FALSE(pool.OnWorkerThread());
  std::mutex mu;
  std::set<int> ids;
  pool.ParallelFor(0, 64, 1, [&](size_t, size_t) {
    const int id = ThreadPool::CurrentWorkerId();
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(id);
  });
  // Chunks run either inline on the caller (-1) or on workers [0, 3).
  for (int id : ids) {
    EXPECT_GE(id, -1);
    EXPECT_LT(id, 3);
  }
  EXPECT_EQ(ThreadPool::CurrentWorkerId(), -1);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::atomic<size_t> inner_total{0};
  pool.ParallelFor(0, 8, 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      pool.ParallelFor(0, 10, 1, [&](size_t ilo, size_t ihi) {
        inner_total += ihi - ilo;
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 80u);
}

// ---------------------------------------------------------------- global pool

TEST(GlobalPoolTest, SetGlobalThreadsResizes) {
  GlobalThreadsGuard guard;
  SetGlobalThreads(3);
  EXPECT_EQ(GlobalThreadCount(), 3u);
  EXPECT_EQ(GlobalThreadPool()->num_threads(), 3u);
  SetGlobalThreads(1);
  EXPECT_EQ(GlobalThreadCount(), 1u);
}

TEST(GlobalPoolTest, FreeParallelForUsesGlobalPool) {
  GlobalThreadsGuard guard;
  SetGlobalThreads(4);
  std::atomic<size_t> sum{0};
  ParallelFor(0, 1000, 32, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) sum += i;
  });
  EXPECT_EQ(sum.load(), 499500u);
}

// ---------------------------------------------------------------- reduce

TEST(ParallelReduceTest, MatchesSerialSumOnRandomShapes) {
  GlobalThreadsGuard guard;
  Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = static_cast<size_t>(rng.UniformInt(0, 5000));
    const size_t grain = static_cast<size_t>(rng.UniformInt(1, 700));
    std::vector<double> values(n);
    for (double& v : values) v = rng.Uniform(-1.0, 1.0);

    // Reference: the same fixed chunking evaluated serially.
    double expected = 0.0;
    for (size_t lo = 0; lo < n; lo += grain) {
      const size_t hi = std::min(n, lo + grain);
      double partial = 0.0;
      for (size_t i = lo; i < hi; ++i) partial += values[i];
      expected += partial;
    }

    for (size_t threads : {1u, 2u, 4u}) {
      SetGlobalThreads(threads);
      const double got = ParallelReduce<double>(
          0, n, grain, 0.0,
          [&](size_t lo, size_t hi) {
            double partial = 0.0;
            for (size_t i = lo; i < hi; ++i) partial += values[i];
            return partial;
          },
          [](double a, double b) { return a + b; });
      // Bitwise: same chunk boundaries, same combine order.
      EXPECT_EQ(got, expected) << "n=" << n << " grain=" << grain
                               << " threads=" << threads;
    }
  }
}

TEST(ParallelReduceTest, EmptyRangeReturnsIdentity) {
  const double got = ParallelReduce<double>(
      3, 3, 8, -7.5, [](size_t, size_t) { return 0.0; },
      [](double a, double b) { return a + b; });
  EXPECT_EQ(got, -7.5);
}

// ------------------------------------------------------- kernel determinism

// tests/CMakeLists.txt reruns the test below under glibc hwcaps masks;
// this one fails any run whose kernel level is not the one its mask and
// CPU allow.
TEST(KernelDeterminismTest, RunsTheWidestKernelLevelAllowed) {
  EXPECT_EQ(std::string(KernelIsa()), ExpectedKernelIsa());
}

TEST(KernelDeterminismTest, MatmulBitwiseIdenticalAcrossThreadCounts) {
  GlobalThreadsGuard guard;
  Rng rng(7);
  // Big enough to clear the serial-fallback thresholds in tensor/ops.cc;
  // 97 rows and 61 columns leave row and column tails past the kernel's
  // tiles at every lane count.
  Matrix a = RandomNormal(97, 83, &rng);
  Matrix b = RandomNormal(83, 61, &rng);
  const Matrix at = Transpose(a);
  const Matrix bt = Transpose(b);
  const auto gemm = [](const Matrix& x, bool trans_x, const Matrix& y,
                       bool trans_y) {
    Matrix out;
    Gemm(x, trans_x, y, trans_y, out);
    return out;
  };

  SetGlobalThreads(1);
  const Matrix serial = Matmul(a, b);
  const Matrix serial_ta = gemm(at, true, b, false);
  const Matrix serial_tb = gemm(a, false, bt, true);
  const Matrix serial_sm = SoftmaxRows(serial);
  const double serial_sum = Sum(serial);
  // Same products, same summation order: the transposed reads agree too.
  EXPECT_EQ(serial_ta, serial);
  EXPECT_EQ(serial_tb, serial);

  for (size_t threads : {2u, 4u}) {
    SetGlobalThreads(threads);
    const Matrix parallel = Matmul(a, b);
    const Matrix parallel_ta = gemm(at, true, b, false);
    const Matrix parallel_tb = gemm(a, false, bt, true);
    const Matrix parallel_sm = SoftmaxRows(parallel);
    const double parallel_sum = Sum(parallel);
    ASSERT_EQ(parallel.rows(), serial.rows());
    for (size_t i = 0; i < serial.rows(); ++i) {
      for (size_t j = 0; j < serial.cols(); ++j) {
        ASSERT_EQ(parallel(i, j), serial(i, j)) << "threads=" << threads;
        ASSERT_EQ(parallel_ta(i, j), serial_ta(i, j)) << "threads=" << threads;
        ASSERT_EQ(parallel_tb(i, j), serial_tb(i, j)) << "threads=" << threads;
        ASSERT_EQ(parallel_sm(i, j), serial_sm(i, j)) << "threads=" << threads;
      }
    }
    EXPECT_EQ(parallel_sum, serial_sum) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace rll
