// Basis lifting: reuse of a simplex basis across *differently shaped*
// problems.
//
// The warm-start contract of SimplexSolver::solve (types.h) requires a
// snapshot whose shape matches the new problem exactly.  Repeated solves in
// the online admission pipeline violate that: every batch re-decide adds
// columns for the new requests and drops the columns of requests that were
// committed since, while the capacity rows and the c_e purchase columns
// persist.  lift_basis maps the persistent part of an old basis onto the
// new problem's shape and fills the rest with a primal-safe default, so the
// solver can *attempt* a warm start (its acceptance check — factorizable,
// exactly m basics, basic values within bounds — still decides; a rejected
// lift silently costs one cold start and nothing else).
#pragma once

#include <span>

#include "lp/types.h"

namespace metis::lp {

/// Lifts `old_basis` (shape: old_cols structural columns + old_rows row
/// slacks) onto a new problem with `new_cols` columns and `new_rows` rows.
///
///  * col_of_new[j] = index of new column j in the old problem, or -1 when
///    the column is new; row_of_new likewise for rows.  Old entities not
///    referenced by any map entry are dropped.
///  * Mapped entities keep their old status.  New columns start AtLower
///    (primal-safe for columns whose lower bound is finite) unless the
///    caller pre-marks them Basic via `basic_new_columns` (one column index
///    per entry), which is what RL-SPM's equality assignment rows need for
///    one column per new row (see lift_into_model in core/lp_builder.h).
///    The slacks of new rows start Basic, which leaves each new row
///    non-binding.
///  * The result is *count-repaired*: a valid basis needs exactly new_rows
///    Basic entries, so surplus Basic row slacks are demoted to AtLower and,
///    when short, non-basic row slacks are promoted (new rows first) — the
///    repair keeps the snapshot acceptable in shape, while feasibility is
///    still the solver's call.
///
/// Returns an empty Basis when old_basis is empty or shape-incompatible
/// with (old_cols, old_rows) — an empty snapshot makes the solver cold
/// start, which is always correct.
Basis lift_basis(const Basis& old_basis, int old_cols, int old_rows,
                 std::span<const int> col_of_new,
                 std::span<const int> row_of_new,
                 std::span<const int> basic_new_columns = {});

}  // namespace metis::lp
