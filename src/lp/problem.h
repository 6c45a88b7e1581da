// LinearProblem: a column/row model for linear and mixed-integer programs.
//
//   min (or max)  c^T x
//   subject to    row_k:  a_k^T x  {<=, >=, =}  b_k      for every row k
//                 l_j <= x_j <= u_j                      for every column j
//
// Rows are stored sparsely.  The model is solver-agnostic: SimplexSolver
// consumes it for LP relaxations and MipSolver adds integrality on a caller-
// provided subset of columns.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "lp/types.h"
#include "util/numeric.h"

namespace metis::lp {

/// Objective direction of a LinearProblem.
enum class Sense { Minimize, Maximize };
/// Relation of a constraint row's activity to its right-hand side.
enum class RowType { LessEqual, GreaterEqual, Equal };

/// One nonzero of a row: coefficient `coef` on column `col`.
struct RowEntry {
  int col = 0;
  double coef = 0;
};

/// One sparse constraint row: a_k^T x {<=, >=, =} rhs.
struct Row {
  RowType type = RowType::LessEqual;
  double rhs = 0;
  std::vector<RowEntry> entries;  ///< the nonzeros of a_k, any column order
  std::string name;               ///< optional label for diagnostics
};

/// The solver-agnostic column/row model (see the file comment for the
/// canonical form).  Columns are appended by add_variable, rows by add_row;
/// both are stable indices that SimplexSolver/MipSolver solutions and Basis
/// snapshots refer to.
class LinearProblem {
 public:
  explicit LinearProblem(Sense sense = Sense::Minimize) : sense_(sense) {}

  /// Adds a column with bounds [lower, upper] and objective coefficient obj.
  /// Returns the column index.  lower may be -kInfinity, upper +kInfinity;
  /// obj must be finite.  Throws std::invalid_argument on NaN input, an
  /// infinite obj, or lower > upper.
  int add_variable(double lower, double upper, double obj, std::string name = "");

  /// Adds a constraint row.  Entries may reference any existing column; the
  /// same column may appear multiple times (coefficients are summed by the
  /// solver).  Returns the row index.  Throws std::invalid_argument on an
  /// unknown column, a NaN rhs or a non-finite coefficient: the simplex
  /// kernels skip zero multipliers, which matches the dense arithmetic only
  /// on finite data (0 * inf is NaN).
  int add_row(RowType type, double rhs, std::vector<RowEntry> entries,
              std::string name = "");

  Sense sense() const { return sense_; }
  void set_sense(Sense sense) { sense_ = sense; }

  int num_variables() const { return static_cast<int>(obj_.size()); }
  int num_rows() const { return static_cast<int>(rows_.size()); }

  double objective_coef(int col) const { return obj_.at(col); }
  /// Replaces column col's objective coefficient.  Throws
  /// std::invalid_argument on an unknown column or a non-finite obj.
  void set_objective_coef(int col, double obj);
  double lower_bound(int col) const { return lower_.at(col); }
  double upper_bound(int col) const { return upper_.at(col); }

  /// Tightens/replaces the bounds of an existing column (used by B&B).
  /// Infinite bounds are legal; throws std::invalid_argument on an unknown
  /// column, a NaN bound or lower > upper.
  void set_bounds(int col, double lower, double upper);

  const Row& row(int r) const { return rows_.at(r); }
  const std::vector<Row>& rows() const { return rows_; }
  const std::vector<double>& objective() const { return obj_; }
  const std::string& variable_name(int col) const { return names_.at(col); }

  /// c^T x for a full assignment.
  double objective_value(std::span<const double> x) const;

  /// a_k^T x for row k.
  double row_activity(int r, std::span<const double> x) const;

  /// True if x satisfies every row and bound within `tol` (absolute on
  /// bounds, relative to the rhs magnitude on rows — a checking tolerance,
  /// deliberately coarser than the solver's working kFeasTol).
  bool is_feasible(std::span<const double> x, double tol = num::kOptTol) const;

  /// Throws std::invalid_argument on structural problems (bad indices,
  /// lower > upper).  The mutators already reject non-finite coefficients
  /// and NaN bounds.  Solvers call this before solving.
  void validate() const;

 private:
  Sense sense_;
  std::vector<double> obj_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<std::string> names_;
  std::vector<Row> rows_;
};

}  // namespace metis::lp
