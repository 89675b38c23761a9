#ifndef TBC_NNF_PROPERTIES_H_
#define TBC_NNF_PROPERTIES_H_

#include "nnf/nnf.h"

namespace tbc {

/// Returns an equivalent smooth circuit (paper §3): each or-gate input is
/// conjoined with (x ∨ ¬x) gates for its missing variables. If
/// `num_vars > 0`, the root is additionally smoothed over variables
/// 0..num_vars-1. Preserves decomposability and determinism.
NnfId Smooth(NnfManager& mgr, NnfId root, size_t num_vars = 0);

}  // namespace tbc

#endif  // TBC_NNF_PROPERTIES_H_
