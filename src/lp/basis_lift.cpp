#include "lp/basis_lift.h"

#include <stdexcept>

namespace metis::lp {

Basis lift_basis(const Basis& old_basis, int old_cols, int old_rows,
                 std::span<const int> col_of_new,
                 std::span<const int> row_of_new,
                 std::span<const int> basic_new_columns) {
  Basis lifted;
  if (old_basis.empty() || !old_basis.compatible(old_cols, old_rows)) {
    return lifted;  // empty => the solver cold starts
  }
  const int new_cols = static_cast<int>(col_of_new.size());
  const int new_rows = static_cast<int>(row_of_new.size());
  lifted.status.assign(static_cast<std::size_t>(new_cols) + new_rows,
                       BasisStatus::AtLower);

  for (int j = 0; j < new_cols; ++j) {
    const int old_j = col_of_new[j];
    if (old_j < 0) continue;  // a new column stays AtLower
    if (old_j >= old_cols) {
      throw std::invalid_argument("lift_basis: column map exceeds old shape");
    }
    lifted.status[j] = old_basis.status[old_j];
  }
  for (int r = 0; r < new_rows; ++r) {
    const int old_r = row_of_new[r];
    if (old_r < 0) {
      lifted.status[new_cols + r] = BasisStatus::Basic;
      continue;
    }
    if (old_r >= old_rows) {
      throw std::invalid_argument("lift_basis: row map exceeds old shape");
    }
    lifted.status[new_cols + r] = old_basis.status[old_cols + old_r];
  }
  for (int j : basic_new_columns) {
    if (j < 0 || j >= new_cols) {
      throw std::invalid_argument("lift_basis: basic_new_columns out of range");
    }
    lifted.status[j] = BasisStatus::Basic;
  }

  // Count repair: the solver requires exactly new_rows Basic entries.  Only
  // row slacks are flipped — structural columns keep whatever the mapping
  // and basic_new_columns said, because demoting a mapped Basic structural
  // to a bound is far more likely to land outside its bounds than parking a
  // slack.  Demotion scans new rows first (their Basic default is the most
  // disposable), promotion likewise.
  int basics = 0;
  for (const BasisStatus s : lifted.status) {
    if (s == BasisStatus::Basic) ++basics;
  }
  const auto sweep_rows = [&](bool new_rows_first, auto&& flip) {
    for (int pass = 0; pass < 2 && basics != new_rows; ++pass) {
      const bool want_new = new_rows_first ? pass == 0 : pass == 1;
      for (int r = 0; r < new_rows && basics != new_rows; ++r) {
        if ((row_of_new[r] < 0) == want_new) flip(new_cols + r);
      }
    }
  };
  if (basics > new_rows) {
    sweep_rows(true, [&](int idx) {
      if (lifted.status[idx] == BasisStatus::Basic) {
        lifted.status[idx] = BasisStatus::AtLower;
        --basics;
      }
    });
  } else if (basics < new_rows) {
    sweep_rows(true, [&](int idx) {
      if (lifted.status[idx] != BasisStatus::Basic) {
        lifted.status[idx] = BasisStatus::Basic;
        ++basics;
      }
    });
  }
  if (basics != new_rows) {
    // Not repairable with row slacks alone (every slack already Basic and
    // still short, or none Basic and still long) — give up cleanly.
    lifted.clear();
  }
  return lifted;
}

}  // namespace metis::lp
