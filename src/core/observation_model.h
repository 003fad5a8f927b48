// Observation-model abstraction for EM/EMS.
//
// EM only needs y = M x and x = M^T z products. Square-Wave-style transition
// matrices have special structure: outside the wave band every entry of a
// column equals the same background value q * bucket_width, so
//   M = background * J + S,       J = all-ones,  S banded.
// Exploiting this turns the O(d_out * d) mat-vec into O(nnz(S) + d), which
// makes EM at d = 2048 several times faster. S itself is not arbitrary
// either: it is a shifted box kernel of height p - q (a Toeplitz
// convolution), so both products collapse further to O(d + d_out) running
// prefix sums independent of the wave bandwidth — that is the
// SlidingWindowObservationModel, the fastest path and the one SwEstimator
// uses. The dense fallback keeps EM usable with arbitrary matrices.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "core/square_wave.h"

namespace numdist {

/// Shared E-step epilogue: given the prediction y = M x and the observed
/// counts, fills weights[j] = counts[j] / max(y[j], 1e-300) (0 where
/// counts[j] == 0) and returns the total log-likelihood
/// sum_j counts[j] log max(y[j], 1e-300). One definition used by every
/// EmSweep path so scalar and vector dispatch can never diverge here.
/// Counts are doubles so the mini-batch path can feed exponentially
/// decayed (fractional) counts; integer histograms convert exactly
/// (uint64 -> double is lossless below 2^53), so the converted path is
/// bit-identical to the historical integer one.
double EmWeightsFromPrediction(const std::vector<double>& counts,
                               const std::vector<double>& y,
                               std::vector<double>* weights);

/// \brief Minimal linear-operator interface consumed by EM.
class ObservationModel {
 public:
  virtual ~ObservationModel() = default;
  /// Output dimension (number of report buckets).
  virtual size_t rows() const = 0;
  /// Input dimension (number of histogram buckets).
  virtual size_t cols() const = 0;
  /// y = M x (y has rows() entries; x has cols() entries).
  virtual void Apply(const std::vector<double>& x,
                     std::vector<double>* y) const = 0;
  /// out = M^T z (out has cols() entries; z has rows() entries).
  virtual void ApplyTranspose(const std::vector<double>& z,
                              std::vector<double>* out) const = 0;

  /// One fused EM E-step sweep: y = M x, weights = counts ⊘ y (per
  /// EmWeightsFromPrediction), mtw = M^T weights; returns the
  /// log-likelihood of x. The default is the straightforward three-pass
  /// composition (right for the O(d) structured operators). The dense
  /// model overrides it with a single pass over row pairs: the weight for
  /// output bucket j is pointwise in y_j, so each row can be dotted,
  /// weighted, and folded into mtw while it is still cache-hot — halving
  /// the matrix traffic that bounds dense EM throughput. The override is
  /// the same operator up to rounding (its paired dot uses a different
  /// fixed reduction order than Apply's; both orders are bit-stable under
  /// either dispatch build). All three outputs are resized by the sweep;
  /// passing correctly sized buffers keeps it allocation-free.
  virtual double EmSweep(const std::vector<double>& x,
                         const std::vector<double>& counts,
                         std::vector<double>* y, std::vector<double>* weights,
                         std::vector<double>* mtw) const;
};

/// \brief Dense fallback: wraps a Matrix, either owned (moved or copied
/// in) or explicitly borrowed through the pointer constructor (the
/// caller's matrix must outlive the model; this is what keeps
/// EstimateEm-from-Matrix from copying an O(d^2) operand per
/// reconstruction).
class DenseObservationModel final : public ObservationModel {
 public:
  /// Owning: stores its own copy of the matrix (moved in from rvalues).
  explicit DenseObservationModel(Matrix m)
      : owned_(std::move(m)), m_(owned_) {}
  /// Non-owning view of `*m`, which must outlive the model. The pointer
  /// spelling is deliberate: borrowing is visible at the call site, and
  /// an lvalue Matrix never silently switches from copy to borrow.
  explicit DenseObservationModel(const Matrix* m) : m_(*m) {}

  DenseObservationModel(const DenseObservationModel&) = delete;
  DenseObservationModel& operator=(const DenseObservationModel&) = delete;

  size_t rows() const override { return m_.rows(); }
  size_t cols() const override { return m_.cols(); }
  void Apply(const std::vector<double>& x,
             std::vector<double>* y) const override;
  void ApplyTranspose(const std::vector<double>& z,
                      std::vector<double>* out) const override;
  double EmSweep(const std::vector<double>& x,
                 const std::vector<double>& counts, std::vector<double>* y,
                 std::vector<double>* weights,
                 std::vector<double>* mtw) const override;

  const Matrix& matrix() const { return m_; }

 private:
  Matrix owned_;
  const Matrix& m_;
};

/// \brief Rank-1 background + banded remainder:
/// M(j, i) = background + band_i[j - band_start_i] for j inside column i's
/// band, and M(j, i) = background outside it.
class BandedObservationModel final : public ObservationModel {
 public:
  /// Decomposes a dense column-stochastic matrix whose off-band entries all
  /// equal `background` (up to `tol`). Entries differing from the background
  /// by more than tol form each column's band (must be contiguous; SW/GW
  /// matrices always are). Falls back to whole-column bands if not.
  static BandedObservationModel FromDense(const Matrix& m, double background,
                                          double tol = 1e-14);

  size_t rows() const override { return rows_; }
  size_t cols() const override { return cols_; }
  void Apply(const std::vector<double>& x,
             std::vector<double>* y) const override;
  void ApplyTranspose(const std::vector<double>& z,
                      std::vector<double>* out) const override;

  /// Total band entries (diagnostic; density = nnz / (rows * cols)).
  size_t BandEntries() const { return band_values_.size(); }

 private:
  BandedObservationModel(size_t rows, size_t cols, double background)
      : rows_(rows), cols_(cols), background_(background) {}

  size_t rows_ = 0;
  size_t cols_ = 0;
  double background_ = 0.0;
  std::vector<size_t> band_start_;   // per column: first in-band row
  std::vector<size_t> band_offset_;  // per column: offset into band_values_
  std::vector<size_t> band_len_;     // per column: band length
  std::vector<double> band_values_;  // concatenated (entry - background)
};

/// \brief Analytic SW/DSW transition operator: constant background q plus a
/// shifted box kernel of height p - q (paper §4-5).
///
/// The dense transition matrix is never materialized. Both products run in
/// O(d + d_out) time and O(1) scratch, independent of the wave bandwidth:
///  - discrete pipeline: M(j, i) = q + (p - q) [i <= j <= i + 2b], so
///    y_j = q sum(x) + (p - q) * (sliding window sum over x) via two running
///    prefix accumulators;
///  - continuous pipeline: M(j, i) = q w_out + (p - q) / w_in * overlap(j, i)
///    where overlap is the exact box/rectangle double integral. Summing
///    columns against x turns the overlap sum into interval integrals of the
///    piecewise-linear CDF of x, evaluated by two monotone cursors (the
///    boundary columns come out in closed form — no special-casing).
///
/// Agrees with the dense TransitionMatrix() operator to ~1e-13 (fp
/// regrouping only). Stateless apart from parameters: concurrent Apply
/// calls from reconstruction threads are safe.
class SlidingWindowObservationModel final : public ObservationModel {
 public:
  /// Operator for SquareWave::TransitionMatrix(d_in, d_out) (the
  /// randomize-before-bucketize pipeline).
  static SlidingWindowObservationModel FromContinuous(const SquareWave& sw,
                                                      size_t d_in,
                                                      size_t d_out);
  /// Operator for DiscreteSquareWave::TransitionMatrix() (the
  /// bucketize-before-randomize pipeline).
  static SlidingWindowObservationModel FromDiscrete(
      const DiscreteSquareWave& dsw);

  size_t rows() const override { return rows_; }
  size_t cols() const override { return cols_; }
  void Apply(const std::vector<double>& x,
             std::vector<double>* y) const override;
  void ApplyTranspose(const std::vector<double>& z,
                      std::vector<double>* out) const override;

  /// ValidateTransitionMatrix (core/transition.h) for the operator, in
  /// O(d + d_out) without materializing it: every entry lies in [0, 1]
  /// (the closed form bounds them between the background q w and
  /// q w + (p - q) times the largest window overlap) and every column
  /// sums to 1 within `tol` (ApplyTranspose of all-ones, so the check
  /// runs the arithmetic EM runs). Internal error otherwise.
  Status Validate(double tol = 1e-8) const;

 private:
  SlidingWindowObservationModel() = default;

  bool discrete_ = false;
  size_t rows_ = 0;
  size_t cols_ = 0;
  double p_ = 0.0;
  double q_ = 0.0;
  // Continuous parameters.
  double b_ = 0.0;      // wave half-width
  double w_in_ = 0.0;   // input bucket width (1 / d)
  double w_out_ = 0.0;  // output bucket width ((1 + 2b) / d_out)
  // Discrete parameter: wave half-width in buckets.
  size_t db_ = 0;
};

}  // namespace numdist
