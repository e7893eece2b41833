#include "autograd/ops.h"

#include <algorithm>
#include <cmath>

#include "common/finite_check.h"
#include "tensor/ops.h"

namespace rll::ag {

namespace {

/// Builds a result node wired to its parents; the backward closure is only
/// materialized (into scratch storage, via BackwardFn) when gradients are
/// needed. allocate_shared draws the node + control block from the same
/// scratch allocator, so an op inside an ArenaScope is allocation-free.
template <typename F>
Var MakeOp(Matrix value, VarList parents, F&& backward) {
  // Every autograd op funnels through here: a NaN/Inf forward value aborts
  // (debug builds) at the op that produced it.
  RLL_DCHECK_FINITE(value);
  bool needs_grad = false;
  for (const Var& p : parents) needs_grad = needs_grad || p->requires_grad;
  Var out = std::allocate_shared<Node>(ScratchAllocator<Node>{},
                                       std::move(value), needs_grad);
  out->parents = std::move(parents);
  if (needs_grad) out->backward_fn = BackwardFn(std::forward<F>(backward));
  return out;
}

}  // namespace

Var Matmul(const Var& a, const Var& b) {
  Matrix value = rll::Matmul(a->value, b->value);
  return MakeOp(std::move(value), {a, b}, [](Node* n) {
    const Var& a = n->parents[0];
    const Var& b = n->parents[1];
    if (a->requires_grad) {
      Matrix da;
      Gemm(n->grad, false, b->value, true, da);
      a->AccumulateGrad(std::move(da));
    }
    if (b->requires_grad) {
      Matrix db;
      Gemm(a->value, true, n->grad, false, db);
      b->AccumulateGrad(std::move(db));
    }
  });
}

Var Dense(const Var& x, const Var& w, const Var& b, Activation activation) {
  Matrix value;
  Gemm(x->value, false, w->value, false, value);
  AddBiasActivate(value, b->value, activation);
  return MakeOp(std::move(value), {x, w, b}, [activation](Node* n) {
    const Var& x = n->parents[0];
    const Var& w = n->parents[1];
    const Var& b = n->parents[2];
    Matrix dz_storage;
    const Matrix* dz = &n->grad;
    if (activation != Activation::kNone) {
      ActivationGrad(n->value, n->grad, activation, dz_storage);
      dz = &dz_storage;
    }
    if (x->requires_grad) {
      Matrix dx;
      Gemm(*dz, false, w->value, true, dx);
      x->AccumulateGrad(std::move(dx));
    }
    if (w->requires_grad) {
      Matrix dw;
      Gemm(x->value, true, *dz, false, dw);
      w->AccumulateGrad(std::move(dw));
    }
    if (b->requires_grad) b->AccumulateGrad(ColSum(*dz));
  });
}

Var Add(const Var& a, const Var& b) {
  return MakeOp(rll::Add(a->value, b->value), {a, b}, [](Node* n) {
    for (int i = 0; i < 2; ++i) {
      if (n->parents[i]->requires_grad) n->parents[i]->AccumulateGrad(n->grad);
    }
  });
}

Var Sub(const Var& a, const Var& b) {
  return MakeOp(rll::Sub(a->value, b->value), {a, b}, [](Node* n) {
    if (n->parents[0]->requires_grad) n->parents[0]->AccumulateGrad(n->grad);
    if (n->parents[1]->requires_grad)
      n->parents[1]->AccumulateGrad(rll::Scale(n->grad, -1.0));
  });
}

Var Mul(const Var& a, const Var& b) {
  return MakeOp(Hadamard(a->value, b->value), {a, b}, [](Node* n) {
    const Var& a = n->parents[0];
    const Var& b = n->parents[1];
    if (a->requires_grad) a->AccumulateGrad(Hadamard(n->grad, b->value));
    if (b->requires_grad) b->AccumulateGrad(Hadamard(n->grad, a->value));
  });
}

Var Div(const Var& a, const Var& b, double eps) {
  RLL_CHECK(a->value.SameShape(b->value));
  auto safe = [eps](double d) {
    if (d >= 0.0) return std::max(d, eps);
    return std::min(d, -eps);
  };
  Matrix value(a->value.rows(), a->value.cols());
  for (size_t i = 0; i < value.size(); ++i) {
    value[i] = a->value[i] / safe(b->value[i]);
  }
  return MakeOp(std::move(value), {a, b}, [safe](Node* n) {
    const Var& a = n->parents[0];
    const Var& b = n->parents[1];
    if (a->requires_grad) {
      Matrix ga(n->grad.rows(), n->grad.cols());
      for (size_t i = 0; i < ga.size(); ++i) {
        ga[i] = n->grad[i] / safe(b->value[i]);
      }
      a->AccumulateGrad(std::move(ga));
    }
    if (b->requires_grad) {
      Matrix gb(n->grad.rows(), n->grad.cols());
      for (size_t i = 0; i < gb.size(); ++i) {
        const double d = safe(b->value[i]);
        gb[i] = -n->grad[i] * a->value[i] / (d * d);
      }
      RLL_DCHECK_FINITE(gb);
      b->AccumulateGrad(std::move(gb));
    }
  });
}

Var Scale(const Var& a, double s) {
  return MakeOp(rll::Scale(a->value, s), {a}, [s](Node* n) {
    n->parents[0]->AccumulateGrad(rll::Scale(n->grad, s));
  });
}

Var AddScalar(const Var& a, double s) {
  return MakeOp(rll::AddScalar(a->value, s), {a}, [](Node* n) {
    n->parents[0]->AccumulateGrad(n->grad);
  });
}

Var AddRowBroadcast(const Var& a, const Var& bias) {
  return MakeOp(rll::AddRowBroadcast(a->value, bias->value), {a, bias},
                [](Node* n) {
                  if (n->parents[0]->requires_grad)
                    n->parents[0]->AccumulateGrad(n->grad);
                  if (n->parents[1]->requires_grad)
                    n->parents[1]->AccumulateGrad(ColSum(n->grad));
                });
}

Var MulRowBroadcast(const Var& a, const Var& row) {
  return MakeOp(rll::MulRowBroadcast(a->value, row->value), {a, row},
                [](Node* n) {
                  const Var& a = n->parents[0];
                  const Var& row = n->parents[1];
                  if (a->requires_grad) {
                    a->AccumulateGrad(
                        rll::MulRowBroadcast(n->grad, row->value));
                  }
                  if (row->requires_grad) {
                    row->AccumulateGrad(
                        ColSum(Hadamard(n->grad, a->value)));
                  }
                });
}

Var BroadcastCol(const Var& col, size_t cols) {
  RLL_CHECK_EQ(col->value.cols(), 1u);
  RLL_CHECK_GT(cols, 0u);
  Matrix value(col->value.rows(), cols);
  for (size_t r = 0; r < value.rows(); ++r) {
    const double v = col->value(r, 0);
    double* row = value.row_data(r);
    for (size_t c = 0; c < cols; ++c) row[c] = v;
  }
  return MakeOp(std::move(value), {col}, [](Node* n) {
    n->parents[0]->AccumulateGrad(rll::RowSum(n->grad));
  });
}

Var Relu(const Var& a) {
  Matrix value = Map(a->value, [](double x) { return x > 0.0 ? x : 0.0; });
  return MakeOp(std::move(value), {a}, [](Node* n) {
    const Matrix& x = n->parents[0]->value;
    Matrix g(n->grad.rows(), n->grad.cols());
    for (size_t i = 0; i < g.size(); ++i) {
      g[i] = x[i] > 0.0 ? n->grad[i] : 0.0;
    }
    n->parents[0]->AccumulateGrad(std::move(g));
  });
}

Var Square(const Var& a) {
  Matrix value = Map(a->value, [](double x) { return x * x; });
  return MakeOp(std::move(value), {a}, [](Node* n) {
    const Matrix& x = n->parents[0]->value;
    Matrix g(n->grad.rows(), n->grad.cols());
    for (size_t i = 0; i < g.size(); ++i) g[i] = 2.0 * x[i] * n->grad[i];
    n->parents[0]->AccumulateGrad(std::move(g));
  });
}

Var Sqrt(const Var& a, double eps) {
  Matrix value =
      Map(a->value, [eps](double x) { return std::sqrt(std::max(x, eps)); });
  return MakeOp(std::move(value), {a}, [eps](Node* n) {
    Matrix g(n->grad.rows(), n->grad.cols());
    for (size_t i = 0; i < g.size(); ++i) {
      g[i] = n->grad[i] * 0.5 / std::max(n->value[i], std::sqrt(eps));
    }
    n->parents[0]->AccumulateGrad(std::move(g));
  });
}

Var Sum(const Var& a) {
  Matrix value(1, 1, rll::Sum(a->value));
  return MakeOp(std::move(value), {a}, [](Node* n) {
    const double g = n->grad(0, 0);
    const Matrix& x = n->parents[0]->value;
    n->parents[0]->AccumulateGrad(Matrix(x.rows(), x.cols(), g));
  });
}

Var Mean(const Var& a) {
  RLL_CHECK_GT(a->value.size(), 0u);
  Matrix value(1, 1, rll::Mean(a->value));
  return MakeOp(std::move(value), {a}, [](Node* n) {
    const Matrix& x = n->parents[0]->value;
    const double g = n->grad(0, 0) / static_cast<double>(x.size());
    n->parents[0]->AccumulateGrad(Matrix(x.rows(), x.cols(), g));
  });
}

Var RowSum(const Var& a) {
  return MakeOp(rll::RowSum(a->value), {a}, [](Node* n) {
    const Matrix& x = n->parents[0]->value;
    Matrix g(x.rows(), x.cols());
    for (size_t r = 0; r < x.rows(); ++r) {
      const double gr = n->grad(r, 0);
      double* row = g.row_data(r);
      for (size_t c = 0; c < x.cols(); ++c) row[c] = gr;
    }
    n->parents[0]->AccumulateGrad(std::move(g));
  });
}

Var RowCosine(const Var& a, const Var& b, double eps) {
  ScratchVector<double> norms(2 * a->value.rows());
  Matrix value = rll::RowCosine(a->value, b->value, eps, norms.data());
  return MakeOp(std::move(value), {a, b},
                [norms = std::move(norms)](Node* n) {
                  const Var& a = n->parents[0];
                  const Var& b = n->parents[1];
                  Matrix ga;
                  Matrix gb;
                  RowCosineGrad(a->value, b->value, n->value, norms.data(),
                                n->grad, a->requires_grad ? &ga : nullptr,
                                b->requires_grad ? &gb : nullptr);
                  if (a->requires_grad) {
                    RLL_DCHECK_FINITE(ga);
                    a->AccumulateGrad(std::move(ga));
                  }
                  if (b->requires_grad) {
                    RLL_DCHECK_FINITE(gb);
                    b->AccumulateGrad(std::move(gb));
                  }
                });
}

Var ConcatCols(const VarList& parts) {
  RLL_CHECK(!parts.empty());
  const size_t rows = parts[0]->value.rows();
  size_t total_cols = 0;
  for (const Var& p : parts) {
    RLL_CHECK_EQ(p->value.rows(), rows);
    total_cols += p->value.cols();
  }
  Matrix value(rows, total_cols);
  size_t offset = 0;
  for (const Var& p : parts) {
    for (size_t r = 0; r < rows; ++r) {
      const double* src = p->value.row_data(r);
      double* dst = value.row_data(r) + offset;
      for (size_t c = 0; c < p->value.cols(); ++c) dst[c] = src[c];
    }
    offset += p->value.cols();
  }
  VarList parents(parts.begin(), parts.end());
  return MakeOp(std::move(value), std::move(parents), [](Node* n) {
    size_t offset = 0;
    for (const Var& p : n->parents) {
      const size_t pc = p->value.cols();
      if (p->requires_grad) {
        Matrix g(p->value.rows(), pc);
        for (size_t r = 0; r < g.rows(); ++r) {
          const double* src = n->grad.row_data(r) + offset;
          double* dst = g.row_data(r);
          for (size_t c = 0; c < pc; ++c) dst[c] = src[c];
        }
        p->AccumulateGrad(std::move(g));
      }
      offset += pc;
    }
  });
}

Var LogSoftmaxRows(const Var& a) {
  const Matrix lse = LogSumExpRows(a->value);
  Matrix value = a->value;
  for (size_t r = 0; r < value.rows(); ++r) {
    double* row = value.row_data(r);
    for (size_t c = 0; c < value.cols(); ++c) row[c] -= lse(r, 0);
  }
  return MakeOp(std::move(value), {a}, [](Node* n) {
    // dx = dy − softmax(x) · rowsum(dy); softmax(x) = exp(logsoftmax).
    const Matrix& y = n->value;
    const Matrix& dy = n->grad;
    Matrix g(y.rows(), y.cols());
    for (size_t r = 0; r < y.rows(); ++r) {
      const double* yr = y.row_data(r);
      const double* dyr = dy.row_data(r);
      double* gr = g.row_data(r);
      double dsum = 0.0;
      for (size_t c = 0; c < y.cols(); ++c) dsum += dyr[c];
      for (size_t c = 0; c < y.cols(); ++c) {
        gr[c] = dyr[c] - std::exp(yr[c]) * dsum;
      }
    }
    n->parents[0]->AccumulateGrad(std::move(g));
  });
}

Var NllRows(const Var& logp, const size_t* targets, size_t count) {
  RLL_CHECK_EQ(logp->value.rows(), count);
  RLL_CHECK(count > 0);
  const double n_rows = static_cast<double>(count);
  double loss = 0.0;
  for (size_t i = 0; i < count; ++i) {
    RLL_CHECK_LT(targets[i], logp->value.cols());
    loss -= logp->value(i, targets[i]);
  }
  Matrix value(1, 1, loss / n_rows);
  // The closure copies the targets into a scratch vector: inside an
  // ArenaScope both the copy and the closure itself are arena-backed.
  ScratchVector<size_t> targets_copy(targets, targets + count);
  return MakeOp(std::move(value), {logp},
                [targets = std::move(targets_copy), n_rows](Node* n) {
                  const double g = n->grad(0, 0);
                  const Matrix& lp = n->parents[0]->value;
                  Matrix grad(lp.rows(), lp.cols());
                  for (size_t i = 0; i < targets.size(); ++i) {
                    grad(i, targets[i]) = -g / n_rows;
                  }
                  n->parents[0]->AccumulateGrad(std::move(grad));
                });
}

}  // namespace rll::ag
