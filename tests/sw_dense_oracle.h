// Test-side dense oracle for SwEstimator's observation model. The
// estimator iterates an analytic sliding-window operator and never builds
// the d_out x d matrix it stands for; tests that need the matrix itself
// (forward images M x, agreement checks) build it here from the
// estimator's own mechanism, column-normalized as the operator is.
#pragma once

#include "common/matrix.h"
#include "core/sw_estimator.h"
#include "core/transition.h"

namespace numdist {

inline Matrix DenseTransition(const SwEstimator& estimator) {
  Matrix m = estimator.options().pipeline ==
                     SwEstimatorOptions::Pipeline::kRandomizeBeforeBucketize
                 ? estimator.wave().TransitionMatrix(
                       estimator.options().d, estimator.output_buckets())
                 : estimator.discrete_wave().TransitionMatrix();
  NormalizeColumns(&m);
  return m;
}

}  // namespace numdist
