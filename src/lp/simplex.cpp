#include "lp/simplex.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "lp/presolve.h"
#include "util/log.h"
#include "util/numeric.h"
#include "util/telemetry.h"

namespace metis::lp {

namespace {

enum class VarStatus { Basic, AtLower, AtUpper, Free };

/// Whole working state of one solve.  All columns (structural, slack,
/// artificial) share the index space [0, num_cols) and one compressed
/// column store: column j's nonzeros are row/coef[start[j], start[j + 1]),
/// in ascending row order.
struct Tableau {
  int m = 0;                 // rows
  int n_struct = 0;          // structural columns
  std::vector<int> start;    // column starts, num_cols + 1 of them
  std::vector<int> row;      // row of each nonzero
  std::vector<double> coef;  // value of each nonzero
  std::vector<double> lb, ub, value;
  std::vector<VarStatus> status;
  std::vector<double> b;       // row rhs
  std::vector<int> basis;      // basis[k] = column basic at position k
  std::vector<int> basis_row;  // basis_row[j] = position of basic col j, or -1
  std::vector<int> artificials;

  int num_cols() const { return static_cast<int>(start.size()) - 1; }
  bool is_fixed(int j) const { return lb[j] == ub[j]; }
  /// Appends a column whose one nonzero is `c` on row `r` (a slack or an
  /// artificial).
  void add_unit_column(int r, double c) {
    row.push_back(r);
    coef.push_back(c);
    start.push_back(static_cast<int>(row.size()));
  }
};

/// Sparse LU factorization of the basis (left-looking elimination with
/// partial pivoting; deterministic ties to the smallest row index) plus a
/// product-form eta file appended per pivot between refactorizations.
///
/// The factorization satisfies  P * (prod_j Lhat_j) * B = U  where Lhat_j
/// is the elementary elimination of pivot j, P gathers pivot rows into
/// basis-position order, and U is upper triangular in position space, so
///   FTRAN: w = B^{-1} a = U^{-1} P (prod Lhat) a   then forward etas,
///   BTRAN: y = B^{-T} c  via reverse transposed etas, forward U^T-solve,
///          scatter through P^T, backward transposed Lhat application.
/// FTRAN results are indexed by basis position; BTRAN results by row.
///
/// L, U and the eta file are each packed back to back, one offset array
/// plus index/value arrays, in the order factorize and push_eta produce
/// them; factorize clears them but keeps their capacity.
class BasisFactor {
 public:
  /// Factorizes the columns `basis[k]` of `t`.  Clears the eta file.
  /// Returns false when the basis is numerically singular.
  bool factorize(const Tableau& t, const std::vector<int>& basis) {
    m_ = static_cast<int>(basis.size());
    lstart_.assign(1, 0);
    lrow_.clear();
    lmult_.clear();
    ustart_.assign(1, 0);
    upos_.clear();
    uval_.clear();
    udiag_.assign(m_, 0.0);
    pivot_row_.assign(m_, -1);
    eta_start_.assign(1, 0);
    eta_pos_.clear();
    eta_pivot_.clear();
    eta_idx_.clear();
    eta_val_.clear();
    pivot_pos_.assign(m_, -1);
    x_.assign(m_, 0.0);
    seen_.assign(m_, 0);
    touched_.clear();
    // Earlier pivots whose pivot row the column has touched, as a min-heap
    // of positions: only they can hold a nonzero to eliminate.
    pending_.clear();
    const auto touch = [&](int r) {
      if (!seen_[r]) {
        seen_[r] = 1;
        touched_.push_back(r);
        if (pivot_pos_[r] >= 0) {
          pending_.push_back(pivot_pos_[r]);
          std::push_heap(pending_.begin(), pending_.end(), std::greater<>());
        }
      }
    };
    for (int k = 0; k < m_; ++k) {
      const int col = basis[k];
      for (int p = t.start[col]; p < t.start[col + 1]; ++p) {
        x_[t.row[p]] = t.coef[p];
        touch(t.row[p]);
      }
      // Left-looking: apply earlier pivots in ascending position order; the
      // value sitting on pivot row j right before its elimination is
      // exactly U's entry u_jk.  Eliminating pivot j touches only rows no
      // pivot up to j claims, so every position it queues lies above j and
      // the heap yields each touched pivot once, in order.
      while (!pending_.empty()) {
        std::pop_heap(pending_.begin(), pending_.end(), std::greater<>());
        const int j = pending_.back();
        pending_.pop_back();
        const double xr = x_[pivot_row_[j]];
        if (xr == 0.0) continue;
        upos_.push_back(j);
        uval_.push_back(xr);
        for (int p = lstart_[j]; p < lstart_[j + 1]; ++p) {
          x_[lrow_[p]] -= lmult_[p] * xr;
          touch(lrow_[p]);
        }
      }
      ustart_.push_back(static_cast<int>(upos_.size()));
      // Partial pivoting over rows not yet claimed by an earlier pivot.
      int piv = -1;
      double best = 0.0;
      for (int r : touched_) {
        if (pivot_pos_[r] >= 0) continue;
        const double a = std::abs(x_[r]);
        if (a > best || (a == best && a > 0.0 && r < piv)) {
          best = a;
          piv = r;
        }
      }
      if (piv < 0 || best < num::kSingularTol) {
        // Singular: no acceptable pivot for basis position k.  Record
        // which position failed and which rows no earlier pivot claimed
        // (ascending), so the caller can repair the basis deterministically
        // instead of giving up.
        fail_pos_ = k;
        fail_rows_.clear();
        for (int r = 0; r < m_; ++r) {
          if (pivot_pos_[r] < 0) fail_rows_.push_back(r);
        }
        return false;
      }
      pivot_row_[k] = piv;
      pivot_pos_[piv] = k;
      udiag_[k] = x_[piv];
      for (int r : touched_) {
        if (pivot_pos_[r] >= 0 || x_[r] == 0.0) continue;
        lrow_.push_back(r);
        lmult_.push_back(x_[r] / udiag_[k]);
      }
      lstart_.push_back(static_cast<int>(lrow_.size()));
      for (int r : touched_) {
        x_[r] = 0.0;
        seen_[r] = 0;
      }
      touched_.clear();
    }
    return true;
  }

  /// Solves B z = w.  `w` arrives in row space (and is clobbered); `z`
  /// leaves in basis-position space.
  void ftran(std::vector<double>& w, std::vector<double>& z) const {
    for (int j = 0; j < m_; ++j) {
      const double xr = w[pivot_row_[j]];
      if (xr == 0.0) continue;
      for (int p = lstart_[j]; p < lstart_[j + 1]; ++p) {
        w[lrow_[p]] -= lmult_[p] * xr;
      }
    }
    z.assign(m_, 0.0);
    for (int k = 0; k < m_; ++k) z[k] = w[pivot_row_[k]];
    for (int k = m_ - 1; k >= 0; --k) {
      if (z[k] == 0.0) continue;
      z[k] /= udiag_[k];
      for (int p = ustart_[k]; p < ustart_[k + 1]; ++p) {
        z[upos_[p]] -= uval_[p] * z[k];
      }
    }
    for (int e = 0; e < eta_count(); ++e) {
      const int r = eta_pos_[e];
      const double zr = z[r] / eta_pivot_[e];
      if (zr != 0.0) {
        for (int p = eta_start_[e]; p < eta_start_[e + 1]; ++p) {
          z[eta_idx_[p]] -= eta_val_[p] * zr;
        }
      }
      z[r] = zr;
    }
  }

  /// Solves B^T y = z.  `z` arrives in basis-position space (and is
  /// clobbered); `y` leaves in row space.
  void btran(std::vector<double>& z, std::vector<double>& y) const {
    btran_etas<1>({z.data()}, eta_count() - 1);
    btran_lu<1>({z.data()}, {&y});
  }

  /// The two BTRANs of a pivot in one pass over the factors, right after
  /// its eta was pushed: `z` solves against the whole factor into `y` (the
  /// next iteration's duals), and `zr` against the factor as it stood
  /// before the newest eta into `rho` (the pivot row devex needs).  Each
  /// right-hand side sees exactly the operations, in the same order, that
  /// btran() of it alone applies, so both results are bit-identical to two
  /// separate solves; sharing the traversal lets the two dependency chains
  /// of each dot product overlap.
  void btran_pair(std::vector<double>& z, std::vector<double>& y,
                  std::vector<double>& zr, std::vector<double>& rho) const {
    const int newest = eta_count() - 1;
    btran_etas<1>({z.data()}, newest, newest);
    btran_etas<2>({z.data(), zr.data()}, newest - 1);
    btran_lu<2>({z.data(), zr.data()}, {&y, &rho});
  }

  /// Records the basis change at position `r` with FTRAN spike `w`
  /// (position space): new B = old B * E where E's column r is w.
  void push_eta(int r, const std::vector<double>& w) {
    eta_pos_.push_back(r);
    eta_pivot_.push_back(w[r]);
    for (int i = 0; i < m_; ++i) {
      if (i != r && w[i] != 0.0) {
        eta_idx_.push_back(i);
        eta_val_.push_back(w[i]);
      }
    }
    eta_start_.push_back(static_cast<int>(eta_idx_.size()));
  }

  int eta_count() const { return static_cast<int>(eta_pos_.size()); }

  /// After a failed factorize: the basis position whose column had no
  /// acceptable pivot, and the rows left unclaimed (ascending).
  int fail_pos() const { return fail_pos_; }
  const std::vector<int>& fail_rows() const { return fail_rows_; }

 private:
  /// Applies the transposed etas `newest` down to `oldest` to each of the
  /// N position-space vectors `z`.
  template <std::size_t N>
  void btran_etas(const std::array<double*, N>& z, int newest,
                  int oldest = 0) const {
    for (int e = newest; e >= oldest; --e) {
      const int r = eta_pos_[e];
      std::array<double, N> acc;
      for (std::size_t v = 0; v < N; ++v) acc[v] = z[v][r];
      for (int p = eta_start_[e]; p < eta_start_[e + 1]; ++p) {
        for (std::size_t v = 0; v < N; ++v) {
          acc[v] -= eta_val_[p] * z[v][eta_idx_[p]];
        }
      }
      for (std::size_t v = 0; v < N; ++v) z[v][r] = acc[v] / eta_pivot_[e];
    }
  }

  /// The LU part of BTRAN for N right-hand sides: forward U^T-solve of
  /// each `z`, scatter through P^T into `y`, backward transposed Lhat.
  template <std::size_t N>
  void btran_lu(const std::array<double*, N>& z,
                const std::array<std::vector<double>*, N>& y) const {
    std::array<double, N> acc;
    for (int k = 0; k < m_; ++k) {
      for (std::size_t v = 0; v < N; ++v) acc[v] = z[v][k];
      for (int p = ustart_[k]; p < ustart_[k + 1]; ++p) {
        for (std::size_t v = 0; v < N; ++v) {
          acc[v] -= uval_[p] * z[v][upos_[p]];
        }
      }
      for (std::size_t v = 0; v < N; ++v) z[v][k] = acc[v] / udiag_[k];
    }
    std::array<double*, N> out;
    for (std::size_t v = 0; v < N; ++v) {
      y[v]->assign(m_, 0.0);
      out[v] = y[v]->data();
      for (int k = 0; k < m_; ++k) out[v][pivot_row_[k]] = z[v][k];
    }
    for (int j = m_ - 1; j >= 0; --j) {
      const int r = pivot_row_[j];
      for (std::size_t v = 0; v < N; ++v) acc[v] = out[v][r];
      for (int p = lstart_[j]; p < lstart_[j + 1]; ++p) {
        for (std::size_t v = 0; v < N; ++v) {
          acc[v] -= lmult_[p] * out[v][lrow_[p]];
        }
      }
      for (std::size_t v = 0; v < N; ++v) out[v][r] = acc[v];
    }
  }

  int m_ = 0;
  // L: pivot k's elimination multipliers, by original row, are
  // lrow_/lmult_[lstart_[k], lstart_[k + 1]).
  std::vector<int> lstart_, lrow_;
  std::vector<double> lmult_;
  // U: column k's strictly-upper entries, by pivot position, are
  // upos_/uval_[ustart_[k], ustart_[k + 1]); its diagonal is udiag_[k].
  std::vector<int> ustart_, upos_;
  std::vector<double> uval_, udiag_;
  std::vector<int> pivot_row_;  // pivot_row_[k] = original row of pivot k
  // Eta file: eta e updates basis position eta_pos_[e] with pivot
  // eta_pivot_[e] and spike eta_idx_/eta_val_[eta_start_[e],
  // eta_start_[e + 1]).
  std::vector<int> eta_start_, eta_pos_, eta_idx_;
  std::vector<double> eta_pivot_, eta_val_;
  // factorize's scratch, kept between calls for its capacity.
  std::vector<int> pivot_pos_;  // row -> pivot position, or -1
  std::vector<double> x_;       // the column being eliminated, by row
  std::vector<char> seen_;      // row is in touched_
  std::vector<int> touched_;    // rows the column has touched
  std::vector<int> pending_;    // min-heap of pivot positions to apply
  int fail_pos_ = -1;           // basis position of the last failure
  std::vector<int> fail_rows_;  // unclaimed rows of the last failure
};

/// Fills the column store with the structural columns of the row-wise
/// LinearProblem by a counting sort.  Rows are visited in ascending order,
/// so each column's entries land in ascending row order and repeated
/// references to a column within one row land side by side, where they
/// are summed in entry order; exact zeros are dropped afterwards.
void build_structural(const LinearProblem& p, Tableau& t) {
  t.m = p.num_rows();
  t.n_struct = p.num_variables();
  t.lb.resize(t.n_struct);
  t.ub.resize(t.n_struct);
  for (int j = 0; j < t.n_struct; ++j) {
    t.lb[j] = p.lower_bound(j);
    t.ub[j] = p.upper_bound(j);
  }
  std::vector<int>& start = t.start;
  start.assign(t.n_struct + 1, 0);
  for (const Row& row : p.rows()) {
    for (const RowEntry& e : row.entries) ++start[e.col + 1];
  }
  for (int j = 0; j < t.n_struct; ++j) start[j + 1] += start[j];
  // Room for the slacks and for as many artificials.
  t.row.reserve(start[t.n_struct] + 2 * t.m);
  t.coef.reserve(start[t.n_struct] + 2 * t.m);
  t.row.resize(start[t.n_struct]);
  t.coef.resize(start[t.n_struct]);
  std::vector<int> end(start.begin(), start.end() - 1);  // fill cursors
  for (int r = 0; r < t.m; ++r) {
    for (const RowEntry& e : p.row(r).entries) {
      int& k = end[e.col];
      if (k > start[e.col] && t.row[k - 1] == r) {
        t.coef[k - 1] += e.coef;
      } else {
        t.row[k] = r;
        t.coef[k] = e.coef;
        ++k;
      }
    }
  }
  // Close the gaps merging left and drop the exact zeros.
  int out = 0;
  for (int j = 0; j < t.n_struct; ++j) {
    const int begin = start[j];
    start[j] = out;
    for (int k = begin; k < end[j]; ++k) {
      if (t.coef[k] == 0.0) continue;
      t.row[out] = t.row[k];
      t.coef[out] = t.coef[k];
      ++out;
    }
  }
  start[t.n_struct] = out;
  t.row.resize(out);
  t.coef.resize(out);
  t.start.reserve(t.n_struct + 2 * t.m + 1);
  t.b.resize(t.m);
  for (int r = 0; r < t.m; ++r) t.b[r] = p.row(r).rhs;
}

/// Appends one slack column per row (coefficient +1).
void add_slacks(const LinearProblem& p, Tableau& t) {
  for (int r = 0; r < t.m; ++r) {
    t.add_unit_column(r, 1.0);
    switch (p.row(r).type) {
      case RowType::LessEqual:
        t.lb.push_back(0.0);
        t.ub.push_back(kInfinity);
        break;
      case RowType::GreaterEqual:
        t.lb.push_back(-kInfinity);
        t.ub.push_back(0.0);
        break;
      case RowType::Equal:
        t.lb.push_back(0.0);
        t.ub.push_back(0.0);
        break;
    }
  }
}

/// Chooses the initial resting point of a nonbasic column.
VarStatus initial_status(double lb, double ub) {
  if (std::isfinite(lb)) return VarStatus::AtLower;
  if (std::isfinite(ub)) return VarStatus::AtUpper;
  return VarStatus::Free;
}

double resting_value(VarStatus s, double lb, double ub) {
  switch (s) {
    case VarStatus::AtLower: return lb;
    case VarStatus::AtUpper: return ub;
    default: return 0.0;
  }
}

/// Maps a snapshot status onto a legal resting status for bounds [lb, ub]
/// (a snapshot from a differently-bounded problem may name an infinite
/// bound; fall back to the standard resting choice rather than reject).
VarStatus remap_status(BasisStatus s, double lb, double ub) {
  switch (s) {
    case BasisStatus::Basic:
      return VarStatus::Basic;
    case BasisStatus::AtLower:
      return std::isfinite(lb) ? VarStatus::AtLower : initial_status(lb, ub);
    case BasisStatus::AtUpper:
      return std::isfinite(ub) ? VarStatus::AtUpper : initial_status(lb, ub);
    case BasisStatus::Free:
      return (std::isfinite(lb) || std::isfinite(ub)) ? initial_status(lb, ub)
                                                      : VarStatus::Free;
  }
  return VarStatus::Free;
}

class Engine {
 public:
  Engine(const LinearProblem& p, const SimplexOptions& opt) : opt_(opt) {
    build_structural(p, t_);
    add_slacks(p, t_);
    max_iterations_ = opt_.max_iterations > 0
                          ? opt_.max_iterations
                          : 200 * (t_.m + t_.n_struct) + 2000;
    // Objective in minimization form over all columns.
    sign_ = p.sense() == Sense::Minimize ? 1.0 : -1.0;
    cost_.assign(t_.num_cols(), 0.0);
    for (int j = 0; j < t_.n_struct; ++j) {
      cost_[j] = sign_ * p.objective_coef(j);
    }
  }

  /// Attempts to adopt a basis snapshot: shape-compatible, exactly m basic
  /// columns, factorizable, and the implied basic values within bounds.
  /// On rejection the engine is left for init_basis() to (re)set.
  bool try_warm_start(const Basis& snapshot) {
    if (!snapshot.compatible(t_.n_struct, t_.m)) return false;
    const int total = t_.num_cols();
    std::vector<VarStatus> status(total);
    std::vector<int> basic;
    basic.reserve(t_.m);
    for (int j = 0; j < total; ++j) {
      status[j] = remap_status(snapshot.status[j], t_.lb[j], t_.ub[j]);
      if (status[j] == VarStatus::Basic) basic.push_back(j);
    }
    if (static_cast<int>(basic.size()) != t_.m) return false;
    if (!factor_.factorize(t_, basic)) return false;
    ++factorizations_;
    t_.status = std::move(status);
    t_.basis = std::move(basic);
    t_.basis_row.assign(total, -1);
    t_.value.assign(total, 0.0);
    for (int k = 0; k < t_.m; ++k) t_.basis_row[t_.basis[k]] = k;
    for (int j = 0; j < total; ++j) {
      if (t_.status[j] != VarStatus::Basic) {
        t_.value[j] = resting_value(t_.status[j], t_.lb[j], t_.ub[j]);
      }
    }
    recompute_basic_values();
    for (int k = 0; k < t_.m; ++k) {
      const int j = t_.basis[k];
      const double v = t_.value[j];
      if (!num::approx_ge(v, t_.lb[j], v, num::kOptTol) ||
          !num::approx_le(v, t_.ub[j], v, num::kOptTol)) {
        return false;
      }
    }
    return true;
  }

  /// Runs the solve.  `warm` means try_warm_start succeeded: the current
  /// basis is primal feasible, so phase 1 is skipped entirely.
  LpSolution run(bool warm) {
    LpSolution out;
    if (!warm) init_basis();
    // Every column, artificials included, exists from here on.
    build_rows();
    if (!warm) {
      if (!t_.artificials.empty()) {
        std::vector<double> phase1(t_.num_cols(), 0.0);
        for (int a : t_.artificials) phase1[a] = 1.0;
        const SolveStatus s1 = timed_iterate(phase1, /*phase1=*/true);
        if (s1 != SolveStatus::Optimal) {
          out.status = s1;
          finish_stats(out);
          return out;
        }
        double infeas = 0;
        for (int a : t_.artificials) infeas += t_.value[a];
        // Residual infeasibility is judged relative to the RHS magnitude:
        // the same leftover that is round-off against b ~ 1e6 is a real
        // violation against b ~ 1.
        double bscale = 0;
        for (double b : t_.b) bscale = std::max(bscale, std::abs(b));
        if (!num::approx_le(infeas, 0.0, bscale, num::kOptTol)) {
          out.status = SolveStatus::Infeasible;
          finish_stats(out);
          return out;
        }
        // Freeze all artificials at zero for phase 2.
        for (int a : t_.artificials) {
          t_.lb[a] = t_.ub[a] = 0.0;
          t_.value[a] = 0.0;
          if (t_.basis_row[a] < 0) t_.status[a] = VarStatus::AtLower;
        }
      }
    }
    // Grow the cost vector to cover artificial columns (cost 0).
    cost_.resize(t_.num_cols(), 0.0);
    const SolveStatus s2 = timed_iterate(cost_, /*phase1=*/false);
    out.status = s2;
    finish_stats(out);
    if (s2 != SolveStatus::Optimal) return out;

    out.x.assign(t_.n_struct, 0.0);
    for (int j = 0; j < t_.n_struct; ++j) out.x[j] = t_.value[j];
    double obj = 0;
    for (int j = 0; j < t_.n_struct; ++j) obj += cost_[j] * t_.value[j];
    out.objective = sign_ * obj;
    // Duals: y = c_B B^{-1}, flipped back for maximization.
    std::vector<double> y;
    compute_y(cost_, y);
    out.duals.assign(t_.m, 0.0);
    for (int r = 0; r < t_.m; ++r) out.duals[r] = sign_ * y[r];
    return out;
  }

  /// Snapshot of the final basis, or an empty Basis when no valid snapshot
  /// exists (a degenerate phase 1 can leave an artificial basic at zero;
  /// such a basis does not describe the original column space).
  Basis export_basis() const {
    Basis b;
    for (int a : t_.artificials) {
      if (t_.status[a] == VarStatus::Basic) return b;
    }
    const int total = t_.n_struct + t_.m;
    b.status.resize(total);
    for (int j = 0; j < total; ++j) {
      switch (t_.status[j]) {
        case VarStatus::Basic: b.status[j] = BasisStatus::Basic; break;
        case VarStatus::AtLower: b.status[j] = BasisStatus::AtLower; break;
        case VarStatus::AtUpper: b.status[j] = BasisStatus::AtUpper; break;
        case VarStatus::Free: b.status[j] = BasisStatus::Free; break;
      }
    }
    return b;
  }

 private:
  /// Sets up the slack basis plus artificials for rows whose slack starts
  /// outside its bounds.
  void init_basis() {
    const int total = t_.num_cols();
    t_.value.assign(total, 0.0);
    t_.status.assign(total, VarStatus::AtLower);
    t_.basis_row.assign(total, -1);
    for (int j = 0; j < total; ++j) {
      t_.status[j] = initial_status(t_.lb[j], t_.ub[j]);
      t_.value[j] = resting_value(t_.status[j], t_.lb[j], t_.ub[j]);
    }
    // Residual r_i = b_i - sum over structural nonbasic values.
    std::vector<double> resid = t_.b;
    for (int j = 0; j < t_.n_struct; ++j) {
      if (t_.value[j] == 0.0) continue;
      for (int p = t_.start[j]; p < t_.start[j + 1]; ++p) {
        resid[t_.row[p]] -= t_.coef[p] * t_.value[j];
      }
    }
    t_.basis.assign(t_.m, -1);
    for (int r = 0; r < t_.m; ++r) {
      const int slack = t_.n_struct + r;
      const double clamped = std::clamp(resid[r], t_.lb[slack], t_.ub[slack]);
      if (std::abs(resid[r] - clamped) <= num::kFeasTol) {
        set_basic(slack, r, resid[r]);
      } else {
        // Slack rests at its nearest bound; an artificial carries the rest.
        t_.status[slack] =
            clamped == t_.lb[slack] ? VarStatus::AtLower : VarStatus::AtUpper;
        t_.value[slack] = clamped;
        const double excess = resid[r] - clamped;
        t_.add_unit_column(r, excess > 0 ? 1.0 : -1.0);
        t_.lb.push_back(0.0);
        t_.ub.push_back(kInfinity);
        t_.value.push_back(std::abs(excess));
        t_.status.push_back(VarStatus::Basic);
        t_.basis_row.push_back(r);
        const int art_col = t_.num_cols() - 1;
        t_.basis[r] = art_col;
        t_.artificials.push_back(art_col);
      }
    }
    refactorize();
  }

  void set_basic(int col, int row, double value) {
    t_.status[col] = VarStatus::Basic;
    t_.value[col] = value;
    t_.basis[row] = col;
    t_.basis_row[col] = row;
  }

  /// The duals y = B^{-T} c_B into `y`.
  void compute_y(const std::vector<double>& c, std::vector<double>& y) {
    btran_z_.assign(t_.m, 0.0);
    for (int k = 0; k < t_.m; ++k) btran_z_[k] = c[t_.basis[k]];
    factor_.btran(btran_z_, y);
  }

  double reduced_cost(int j, const std::vector<double>& c,
                      const std::vector<double>& y) const {
    double d = c[j];
    for (int p = t_.start[j]; p < t_.start[j + 1]; ++p) {
      d -= y[t_.row[p]] * t_.coef[p];
    }
    return d;
  }

  /// The spike B^{-1} a_j, indexed by basis position, into `spike_`.
  void ftran(int j) {
    ftran_rhs_.assign(t_.m, 0.0);
    for (int p = t_.start[j]; p < t_.start[j + 1]; ++p) {
      ftran_rhs_[t_.row[p]] = t_.coef[p];
    }
    factor_.ftran(ftran_rhs_, spike_);
  }

  /// Right after the eta of a pivot at basis position `r` was pushed:
  /// the next iteration's duals y = B^{-T} c_B into `y`, and row r of the
  /// pre-pivot B^{-1}, rho = B_old^{-T} e_r, into `rho`, in one fused pass
  /// (BasisFactor::btran_pair).  rho . a_j is entry j of the pivot row,
  /// the quantity the devex weight recurrence needs per nonbasic column.
  void compute_y_and_rho(const std::vector<double>& c, int r,
                         std::vector<double>& y, std::vector<double>& rho) {
    btran_z_.assign(t_.m, 0.0);
    for (int k = 0; k < t_.m; ++k) btran_z_[k] = c[t_.basis[k]];
    btran_zr_.assign(t_.m, 0.0);
    btran_zr_[r] = 1.0;
    factor_.btran_pair(btran_z_, y, btran_zr_, rho);
  }

  /// Builds the row-wise copy of every column that update_devex reads
  /// the pivot row from: row r's entries in ascending column order.
  void build_rows() {
    const int n = t_.num_cols();
    row_start_.assign(t_.m + 1, 0);
    for (int r : t_.row) ++row_start_[r + 1];
    for (int r = 0; r < t_.m; ++r) row_start_[r + 1] += row_start_[r];
    row_col_.resize(row_start_[t_.m]);
    row_coef_.resize(row_start_[t_.m]);
    std::vector<int> fill(row_start_.begin(), row_start_.end() - 1);
    for (int j = 0; j < n; ++j) {
      for (int k = t_.start[j]; k < t_.start[j + 1]; ++k) {
        const int p = fill[t_.row[k]]++;
        row_col_[p] = j;
        row_coef_[p] = t_.coef[k];
      }
    }
    alpha_row_.assign(n, 0.0);
    in_alpha_row_.assign(n, 0);
  }

  /// Refactorizes the current basis from scratch and recomputes values.
  /// Also resets the devex reference weights to a fresh reference
  /// framework: the refactorization interval bounds how far the weight
  /// recurrence can grow/drift, and a reset alongside the exact recompute
  /// keeps the pricing frame and the numerical frame in lockstep.
  void refactorize() {
    if (t_.m == 0) return;
    int repairs = 0;
    while (!factor_.factorize(t_, t_.basis)) {
      // A run of numerically tiny (but individually acceptable) pivots can
      // leave the basis columns dependent to working precision.  The old
      // behaviour was a hard throw; repair instead, so one bad pivot
      // sequence cannot kill a whole solve.  Each repair claims one more
      // row, so the loop terminates; the cap keeps the old throw as a
      // backstop against pathological inputs.
      if (++repairs > t_.m) {
        throw std::runtime_error("simplex: singular basis during refactorize");
      }
      repair_basis(factor_.fail_pos(), factor_.fail_rows());
    }
    basis_repairs_ += repairs;
    ++factorizations_;
    recompute_basic_values();
    reset_devex();
  }

  /// Deterministic singular-basis repair: the LU found no acceptable pivot
  /// for the column at basis position `pos` — it is numerically dependent
  /// on the other basis columns.  Swap in the slack of the smallest
  /// unclaimed row whose slack is still nonbasic (a unit column on an
  /// unclaimed row is independent of everything already factored) and rest
  /// the displaced column at its nearest bound.
  void repair_basis(int pos, const std::vector<int>& unclaimed) {
    int row = unclaimed.empty() ? -1 : unclaimed.front();
    for (int r : unclaimed) {
      if (t_.basis_row[t_.n_struct + r] < 0) {
        row = r;
        break;
      }
    }
    if (row < 0) {
      throw std::runtime_error("simplex: singular basis during refactorize");
    }
    const int out = t_.basis[pos];
    const int slack = t_.n_struct + row;
    t_.status[out] = initial_status(t_.lb[out], t_.ub[out]);
    t_.value[out] = resting_value(t_.status[out], t_.lb[out], t_.ub[out]);
    t_.basis_row[out] = -1;
    set_basic(slack, pos, t_.value[slack]);
  }

  void recompute_basic_values() {
    // x_B = B^{-1} (b - A_N x_N)
    std::vector<double> rhs = t_.b;
    for (int j = 0; j < t_.num_cols(); ++j) {
      if (t_.status[j] == VarStatus::Basic || t_.value[j] == 0.0) continue;
      for (int p = t_.start[j]; p < t_.start[j + 1]; ++p) {
        rhs[t_.row[p]] -= t_.coef[p] * t_.value[j];
      }
    }
    std::vector<double> z;
    factor_.ftran(rhs, z);
    for (int k = 0; k < t_.m; ++k) t_.value[t_.basis[k]] = z[k];
  }

  /// One simplex phase.  Returns Optimal, Unbounded or IterationLimit.
  /// iterate() under a per-phase trace span, so lp_solve/phase1 vs /phase2
  /// pivot time is separable in the telemetry export.
  SolveStatus timed_iterate(const std::vector<double>& c, bool phase1) {
    METIS_SPAN(phase1 ? "phase1" : "phase2");
    return iterate(c, phase1);
  }

  /// Outcome of a ratio test: the step length, the blocking basis position
  /// (-1 when no bound blocks), and which bound the leaving variable hits.
  struct RatioChoice {
    double t_max = kInfinity;
    int leave_pos = -1;
    bool leave_to_upper = false;
  };

  /// Textbook smallest-ratio rule, two-pass.  Pass 1 finds the exact
  /// minimum ratio; pass 2 tie-breaks to the smallest basis column index
  /// among candidates within round-off (kTieTol, relative) of that *final*
  /// minimum.  The band must be round-off sized and anchored at the final
  /// minimum: the old one-pass rule banded against the running minimum with
  /// the feasibility tolerance, which could (a) retain a leaving candidate
  /// whose true ratio exceeds the step by up to kFeasTol — snapping it onto
  /// a bound it never reached — and (b) skip recording a later, strictly
  /// smaller ratio inside the band, overdriving the true blocker through
  /// its bound.  Both inject up to kFeasTol*|coef| of error that, unlike
  /// the Harris budget model's transient *basic* violations, sits on a
  /// nonbasic value and therefore survives every refactorization.
  RatioChoice ratio_test_textbook(double sigma,
                                  const std::vector<double>& w) const {
    RatioChoice out;
    for (int i = 0; i < t_.m; ++i) {
      const double coef = sigma * w[i];
      const int bj = t_.basis[i];
      if (coef > num::kPivotTol) {
        if (!std::isfinite(t_.lb[bj])) continue;
        const double room = std::max(0.0, t_.value[bj] - t_.lb[bj]);
        out.t_max = std::min(out.t_max, room / coef);
      } else if (coef < -num::kPivotTol) {
        if (!std::isfinite(t_.ub[bj])) continue;
        const double room = std::max(0.0, t_.ub[bj] - t_.value[bj]);
        out.t_max = std::min(out.t_max, room / (-coef));
      }
    }
    if (!std::isfinite(out.t_max)) return out;  // no blocking bound
    const double band = num::kTieTol * num::rel_scale(out.t_max);
    for (int i = 0; i < t_.m; ++i) {
      const double coef = sigma * w[i];
      const int bj = t_.basis[i];
      double ratio;
      bool to_upper;
      if (coef > num::kPivotTol && std::isfinite(t_.lb[bj])) {
        ratio = std::max(0.0, t_.value[bj] - t_.lb[bj]) / coef;
        to_upper = false;
      } else if (coef < -num::kPivotTol && std::isfinite(t_.ub[bj])) {
        ratio = std::max(0.0, t_.ub[bj] - t_.value[bj]) / (-coef);
        to_upper = true;
      } else {
        continue;
      }
      if (ratio > out.t_max + band) continue;
      if (out.leave_pos < 0 || bj < t_.basis[out.leave_pos]) {
        out.leave_pos = i;
        out.leave_to_upper = to_upper;
      }
    }
    return out;
  }

  /// Harris two-pass ratio test with bounded bound-perturbation.
  ///
  /// Pass 1 computes the relaxed step theta = min_i (room_i + delta_i) /
  /// |coef_i| where delta_i = kFeasTol * max(1, |bound_i|) is each bound's
  /// expansion budget.  Pass 2 picks, among the candidates whose TRUE ratio
  /// fits under theta, the numerically largest pivot (deterministic ties to
  /// the smallest basis column index).  The chosen step may push other
  /// basic variables past their bounds, but never by more than their
  /// budget, and refactorization recomputes values from the nonbasic rest
  /// points so the drift does not compound.  Degenerate vertices — tied
  /// zero ratios, exactly what duplicate-rate SPM requests produce — yield
  /// a large stable pivot instead of a forced tiny one, which is what stops
  /// the stalling/cycling the textbook rule is prone to.
  RatioChoice ratio_test_harris(double sigma,
                                const std::vector<double>& w) const {
    RatioChoice out;
    double theta = kInfinity;
    for (int i = 0; i < t_.m; ++i) {
      const double coef = sigma * w[i];
      const int bj = t_.basis[i];
      if (coef > num::kPivotTol) {
        if (!std::isfinite(t_.lb[bj])) continue;
        const double room = std::max(0.0, t_.value[bj] - t_.lb[bj]);
        const double budget = num::kFeasTol * num::rel_scale(t_.lb[bj]);
        theta = std::min(theta, (room + budget) / coef);
      } else if (coef < -num::kPivotTol) {
        if (!std::isfinite(t_.ub[bj])) continue;
        const double room = std::max(0.0, t_.ub[bj] - t_.value[bj]);
        const double budget = num::kFeasTol * num::rel_scale(t_.ub[bj]);
        theta = std::min(theta, (room + budget) / (-coef));
      }
    }
    if (!std::isfinite(theta)) return out;  // no blocking bound
    double best_mag = 0;
    for (int i = 0; i < t_.m; ++i) {
      const double coef = sigma * w[i];
      const int bj = t_.basis[i];
      double ratio;
      bool to_upper;
      if (coef > num::kPivotTol && std::isfinite(t_.lb[bj])) {
        ratio = std::max(0.0, t_.value[bj] - t_.lb[bj]) / coef;
        to_upper = false;
      } else if (coef < -num::kPivotTol && std::isfinite(t_.ub[bj])) {
        ratio = std::max(0.0, t_.ub[bj] - t_.value[bj]) / (-coef);
        to_upper = true;
      } else {
        continue;
      }
      if (ratio > theta) continue;
      const double mag = std::abs(coef);
      if (mag > best_mag ||
          (mag == best_mag && out.leave_pos >= 0 &&
           bj < t_.basis[out.leave_pos])) {
        best_mag = mag;
        out.t_max = ratio;
        out.leave_pos = i;
        out.leave_to_upper = to_upper;
      }
    }
    return out;
  }

  /// Pricing violation of nonbasic column j given reduced cost d, or 0
  /// when j prices out (not attractive at its resting bound).
  double pricing_violation(int j, double d) const {
    if (t_.status[j] == VarStatus::AtLower && d < -num::kFeasTol) return -d;
    if (t_.status[j] == VarStatus::AtUpper && d > num::kFeasTol) return d;
    if (t_.status[j] == VarStatus::Free && std::abs(d) > num::kFeasTol)
      return std::abs(d);
    return 0.0;
  }

  /// Bland's rule: the first nonbasic column, by index, that prices out
  /// attractive.  Paired with the textbook ratio test it guarantees
  /// termination.
  int price_bland(const std::vector<double>& c, const std::vector<double>& y,
                  double* enter_d) {
    ++pricing_passes_;
    for (int j = 0; j < t_.num_cols(); ++j) {
      if (t_.status[j] == VarStatus::Basic || t_.is_fixed(j)) continue;
      const double d = reduced_cost(j, c, y);
      if (pricing_violation(j, d) > 0) {
        *enter_d = d;
        return j;
      }
    }
    return -1;
  }

  /// Devex partial pricing: scan the nonbasic ring in windows of
  /// `pricing_window` columns starting just past the previous entering
  /// column, stopping at the end of the first window that holds an
  /// attractive column; the entering variable maximizes the devex-weighted
  /// violation d_j^2 / w_j (deterministic ties to the smallest column
  /// index).  When every window comes up empty the scan has walked the full
  /// ring, so "no candidate" certifies optimality against every nonbasic
  /// column.
  int price_devex(const std::vector<double>& c, const std::vector<double>& y,
                  double* enter_d) {
    ++pricing_passes_;
    const int n = t_.num_cols();
    const int window =
        opt_.pricing_window > 0 ? opt_.pricing_window : std::max(64, n / 8);
    int enter = -1;
    double best_score = 0;
    int scanned = 0;
    for (int k = 0; k < n; ++k) {
      int j = window_start_ + k;
      if (j >= n) j -= n;
      ++scanned;
      if (t_.status[j] != VarStatus::Basic && !t_.is_fixed(j)) {
        const double d = reduced_cost(j, c, y);
        const double violation = pricing_violation(j, d);
        if (violation > 0) {
          const double score = violation * violation / devex_[j];
          if (score > best_score ||
              (score == best_score && enter >= 0 && j < enter)) {
            best_score = score;
            enter = j;
            *enter_d = d;
          }
        }
      }
      if (enter >= 0 && (k + 1) % window == 0) break;
    }
    if (scanned >= n) {
      ++full_fallbacks_;
    } else {
      ++partial_hits_;
    }
    if (enter >= 0) window_start_ = enter + 1 == n ? 0 : enter + 1;
    return enter;
  }

  /// Resets every devex reference weight to 1 (a fresh reference
  /// framework).  Called on refactorization — which bounds how stale the
  /// projected-devex weights can get — and therefore also on Bland-mode
  /// entry, whose transition refactorizes.
  void reset_devex() { devex_.assign(t_.num_cols(), 1.0); }

  /// Devex weight update for one pivot (Forrest & Goldfarb's recurrence):
  /// entering column `enter` displaced `leave`, with pivot element `alpha`
  /// (the FTRAN spike at the pivot position) and `rho` the pivot row of
  /// the pre-pivot B^{-1}.  With alpha_j = rho . a_j the pivot-row entry
  /// of nonbasic column j,
  ///
  ///    gamma_j    = max(gamma_j, (alpha_j / alpha)^2 * gamma_q)   j != q
  ///    gamma_r    = max(gamma_q / alpha^2, 1)
  ///
  /// which keeps each gamma_j an underestimate-by-design reference-space
  /// proxy for the steepest-edge norm ||B^{-1} a_j||^2.  rho comes from
  /// the fused BTRAN that also yields the next duals, and the pivot row is
  /// built row-wise: only the rows where rho is nonzero are visited, in
  /// ascending order, so each alpha_j accumulates the same terms in the
  /// same order as a dot product down column j.  The zeros of rho it skips
  /// add only +-0 to a sum that starts at +0, which leaves the sum's bits
  /// unchanged as long as the matrix is finite (LinearProblem rejects
  /// infinite coefficients).  Weight growth is bounded by the
  /// refactorization reset (a fresh reference framework every
  /// refactor_interval pivots).
  void update_devex(int enter, int leave, double alpha,
                    const std::vector<double>& rho) {
    if (alpha == 0.0) return;  // unreachable: the pivot magnitude is checked
    const double gq = std::max(devex_[enter], 1.0);
    const double alpha_sq = alpha * alpha;
    for (int r = 0; r < t_.m; ++r) {
      if (rho[r] == 0.0) continue;
      for (int p = row_start_[r]; p < row_start_[r + 1]; ++p) {
        const int j = row_col_[p];
        if (!in_alpha_row_[j]) {
          in_alpha_row_[j] = 1;
          alpha_cols_.push_back(j);
        }
        alpha_row_[j] += rho[r] * row_coef_[p];
      }
    }
    for (int j : alpha_cols_) {
      const double aj = alpha_row_[j];
      alpha_row_[j] = 0.0;
      in_alpha_row_[j] = 0;
      if (t_.status[j] == VarStatus::Basic || t_.is_fixed(j) || j == enter ||
          aj == 0.0) {
        continue;
      }
      const double cand = aj * aj / alpha_sq * gq;
      if (cand > devex_[j]) devex_[j] = cand;
    }
    alpha_cols_.clear();
    devex_[leave] = std::max(gq / alpha_sq, 1.0);
  }

  SolveStatus iterate(const std::vector<double>& c, bool phase1) {
    int degenerate_run = 0;
    reset_devex();
    // y solves B^T y = c_B for the current factors whenever y_current is
    // set: a bound flip keeps the basis and the costs, and a pivot that
    // pushes an eta computes the next y in the fused BTRAN.
    std::vector<double> y, rho;
    bool y_current = false;
    while (true) {
      if (iterations_++ >= max_iterations_) return SolveStatus::IterationLimit;
      const bool bland = degenerate_run >= opt_.bland_threshold;
      // Reinversion trigger 1 (deterministic: a pure function of the pivot
      // sequence): on the transition into Bland's anti-cycling mode,
      // refactorize once so the endgame prices against exact basic values
      // instead of the drift the Harris bound-expansion accumulated.  The
      // refactorization also resets the devex weights, so Bland's endgame
      // never prices on a stale reference framework.
      if (degenerate_run == opt_.bland_threshold) {
        refactorize();
        y_current = false;
      }
      if (!y_current) compute_y(c, y);
      y_current = true;

      // --- Pricing (devex partial pricing; see simplex.h) ---
      double enter_d = 0;
      const int enter =
          bland ? price_bland(c, y, &enter_d) : price_devex(c, y, &enter_d);
      if (enter < 0) return SolveStatus::Optimal;

      // Direction: sigma=+1 when the entering variable increases.
      const double sigma =
          (t_.status[enter] == VarStatus::AtUpper ||
           (t_.status[enter] == VarStatus::Free && enter_d > 0))
              ? -1.0
              : 1.0;
      ftran(enter);
      const std::vector<double>& w = spike_;

      // --- Ratio test (Harris two-pass; see simplex.h) ---
      // Bland's anti-cycling guarantee needs smallest-index selection on
      // BOTH sides of the pivot: entering (price_bland) AND leaving.
      // Harris's largest-pivot choice breaks the guarantee — on heavily
      // degenerate vertices the Bland endgame can revisit bases forever
      // (observed as a ~100k-iteration cycle under partial pricing) — so
      // Bland mode always uses the textbook rule, whose tie-break is the
      // smallest basis column index.
      const RatioChoice choice = bland ? ratio_test_textbook(sigma, w)
                                       : ratio_test_harris(sigma, w);
      double t_max = choice.t_max;
      const int leave_pos = choice.leave_pos;
      const bool leave_to_upper = choice.leave_to_upper;
      // Bound-flip of the entering variable itself.  Ties go to the flip:
      // it needs no basis change, and on degenerate bottlenecks it leaves
      // the basis whose dual prices the *extra* unit of capacity (the
      // shadow price callers consume) rather than the removed one.
      const double span = t_.ub[enter] - t_.lb[enter];
      bool flip = false;
      if (std::isfinite(span) && span <= t_max) {
        t_max = span;
        flip = true;
      }
      if (!std::isfinite(t_max)) {
        // Phase 1 minimizes a nonnegative sum, so it cannot be unbounded;
        // hitting this in phase 1 indicates numerical trouble.
        return phase1 ? SolveStatus::NotSolved : SolveStatus::Unbounded;
      }
      t_max = std::max(0.0, t_max);
      degenerate_run = t_max <= num::kFeasTol ? degenerate_run + 1 : 0;

      // --- Apply the step ---
      for (int i = 0; i < t_.m; ++i) {
        t_.value[t_.basis[i]] -= sigma * t_max * w[i];
      }
      if (flip) {
        t_.status[enter] = t_.status[enter] == VarStatus::AtLower
                               ? VarStatus::AtUpper
                               : VarStatus::AtLower;
        t_.value[enter] = resting_value(t_.status[enter], t_.lb[enter], t_.ub[enter]);
        continue;
      }
      const double enter_value = t_.value[enter] + sigma * t_max;
      const int leave = t_.basis[leave_pos];
      // Leaving variable snaps exactly onto the bound it hit.
      t_.status[leave] = leave_to_upper ? VarStatus::AtUpper : VarStatus::AtLower;
      t_.value[leave] = leave_to_upper ? t_.ub[leave] : t_.lb[leave];
      t_.basis_row[leave] = -1;
      // Freeze artificials once they leave the basis.
      if (leave >= t_.n_struct + t_.m) {
        t_.lb[leave] = t_.ub[leave] = 0.0;
        t_.value[leave] = 0.0;
        t_.status[leave] = VarStatus::AtLower;
      }
      set_basic(enter, leave_pos, enter_value);

      // --- Update the factorization ---
      // Reinversion triggers 2-4, all deterministic (pure functions of the
      // pivot sequence): an absolutely tiny pivot, a pivot small relative
      // to the spike's largest entry (an eta division by it would amplify
      // the spike by > 1/kOptTol), and the periodic eta-file cap.  The
      // refactorization resets the devex weights, which makes this pivot's
      // own devex update moot, and the next iteration solves for y
      // against the fresh factors.
      const double pivot = w[leave_pos];
      double spike = 0;
      for (int i = 0; i < t_.m; ++i) spike = std::max(spike, std::abs(w[i]));
      if (std::abs(pivot) < num::kPivotTol ||
          std::abs(pivot) < num::kOptTol * spike ||
          factor_.eta_count() + 1 >= opt_.refactor_interval) {
        refactorize();
        y_current = false;
        continue;
      }
      factor_.push_eta(leave_pos, w);
      compute_y_and_rho(c, leave_pos, y, rho);
      update_devex(enter, leave, pivot, rho);
    }
  }

  void finish_stats(LpSolution& out) const {
    out.iterations = iterations_;
    out.stats.iterations = iterations_;
    out.stats.factorizations = factorizations_;
    out.stats.pricing_passes = pricing_passes_;
    out.stats.partial_hits = partial_hits_;
    out.stats.full_fallbacks = full_fallbacks_;
    out.stats.basis_repairs = basis_repairs_;
  }

  SimplexOptions opt_;
  Tableau t_;
  BasisFactor factor_;
  std::vector<double> cost_;  // minimization costs over all columns
  std::vector<double> devex_;  // devex reference weights, one per column
  // Per-iteration scratch, kept for its capacity: ftran's row-space
  // right-hand side and its spike, and the BTRAN right-hand sides.
  std::vector<double> ftran_rhs_, spike_, btran_z_, btran_zr_;
  // Row-wise copy of the column store for the devex pivot row (build_rows): row r's
  // entries are row_col_/row_coef_[row_start_[r], row_start_[r + 1]).
  std::vector<int> row_start_;
  std::vector<int> row_col_;
  std::vector<double> row_coef_;
  std::vector<double> alpha_row_;   // pivot-row accumulator, one per column
  std::vector<char> in_alpha_row_;  // column has an entry in alpha_row_
  std::vector<int> alpha_cols_;     // those columns, in first-hit order
  double sign_ = 1.0;
  int iterations_ = 0;
  int factorizations_ = 0;
  int basis_repairs_ = 0;
  int max_iterations_ = 0;
  int window_start_ = 0;       // partial-pricing ring cursor
  long pricing_passes_ = 0;    // pricing calls (one per iteration)
  long partial_hits_ = 0;      // devex passes satisfied inside the ring
  long full_fallbacks_ = 0;    // devex passes that walked the full ring
};

}  // namespace

LpSolution SimplexSolver::solve(const LinearProblem& problem) const {
  return solve(problem, nullptr);
}

LpSolution SimplexSolver::solve(const LinearProblem& problem,
                                Basis* basis) const {
  const telemetry::Stopwatch timer;
  METIS_SPAN("lp_solve");
  problem.validate();
  LpSolution sol;
  bool warm_used = false;

  bool solved = false;
  // A caller-supplied basis refers to the full problem, so an accepted
  // warm start bypasses presolve entirely.
  if (basis != nullptr && !basis->empty() &&
      basis->compatible(problem.num_variables(), problem.num_rows())) {
    Engine engine(problem, options_);
    if (engine.try_warm_start(*basis)) {
      warm_used = true;
      sol = engine.run(true);
      if (sol.ok()) *basis = engine.export_basis();
      solved = true;
    }
  }
  if (!solved && options_.presolve) {
    const PresolveResult pre = presolve(problem);
    if (pre.infeasible) {
      sol.status = SolveStatus::Infeasible;
      solved = true;
    } else if (!pre.unbounded) {
      Engine engine(pre.reduced, options_);
      const LpSolution red = engine.run(false);
      sol = pre.postsolve(problem, red);
      sol.stats.presolve_removed_rows = pre.removed_rows;
      sol.stats.presolve_removed_cols = pre.removed_columns;
      if (sol.ok() && basis) {
        *basis = pre.lift_basis(problem, engine.export_basis());
      }
      solved = true;
    }
    // An `unbounded` verdict only proves an improving ray exists IF the
    // rest of the model is feasible; fall through and let the full solve
    // decide between Unbounded and Infeasible.
  }
  if (!solved) {
    Engine engine(problem, options_);
    sol = engine.run(false);
    if (sol.ok() && basis) *basis = engine.export_basis();
  }

  if (warm_used) {
    sol.stats.warm_starts = 1;
  } else {
    sol.stats.cold_starts = 1;
  }
  sol.stats.solve_seconds = timer.seconds();
  telemetry::count("lp.solves");
  telemetry::count("lp.iterations", sol.stats.iterations);
  telemetry::count("lp.factorizations", sol.stats.factorizations);
  telemetry::count("lp.pricing_passes", sol.stats.pricing_passes);
  telemetry::count("lp.partial_hits", sol.stats.partial_hits);
  telemetry::count("lp.full_fallbacks", sol.stats.full_fallbacks);
  if (sol.stats.basis_repairs > 0) {
    telemetry::count("lp.basis_repairs", sol.stats.basis_repairs);
  }
  telemetry::count(warm_used ? "lp.warm_starts" : "lp.cold_starts");
  telemetry::observe("lp.solve_ms", timer.ms());
  return sol;
}

}  // namespace metis::lp
