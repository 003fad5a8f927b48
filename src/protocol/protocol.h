// The batched Protocol abstraction every mechanism in the library runs
// behind (SW + EM/EMS, CFO binning over any frequency oracle, HH, HH-ADMM,
// HaarHRR). The paper's pipeline — client randomization (§5.2), server
// aggregation, EM/EMS or hierarchy reconstruction (§5.5, §4.2-4.3) —
// generalizes to one explicit three-stage contract:
//
//   1. EncodePerturbBatch(values, rng) -> ReportChunk
//        Client side. Encodes and perturbs a batch of raw values in [0,1]
//        into the mechanism's wire format. Pure function of (values, rng
//        stream): shards with fixed RNG streams are bit-reproducible.
//   2. Accumulator::Absorb(chunk) / Merge(other)
//        Server side. Folds chunks into compact aggregation state (exact
//        integer counts/sketches for every built-in protocol, so Merge is
//        associative and thread-count independent). One accumulator per
//        worker thread, merged once at the end.
//   3. Reconstruct(accumulator) -> MethodOutput
//        Server side, once: inverts the aggregate into the estimated
//        distribution and/or range-query oracle.
//
// Lifetimes: chunks and accumulators hold state only; they must not outlive
// the Protocol that created them, and they only compose with accumulators /
// chunks from the same Protocol instance's family (same shape).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/rng.h"

namespace numdist {

/// One count table of an AccumulatorState, plus the number of reports
/// attributed to it. Single-table protocols (SW, CFO) use one entry; the
/// hierarchy protocols keep one table per tree level, each with its own
/// per-level report count (level groups normalize independently).
struct AccumulatorTable {
  std::vector<int64_t> counts;
  uint64_t n = 0;
};

/// \brief Portable exact-integer snapshot of an Accumulator.
///
/// Every built-in accumulator is exact integer state, so exporting,
/// shipping, and re-importing it is lossless: ImportState followed by Merge
/// on another process reproduces the bit-identical aggregate the
/// in-process path would have built. The wire layer (src/wire/) serializes
/// this into versioned sketch frames.
struct AccumulatorState {
  std::vector<AccumulatorTable> tables;
  uint64_t num_reports = 0;
};

/// What one protocol run produces.
struct MethodOutput {
  /// Reconstructed d-bucket distribution over [0,1]. Empty when the method
  /// cannot produce a valid distribution (HH, HaarHRR — their estimates
  /// contain negatives and are evaluated on range queries only, per Table 2).
  std::vector<double> distribution;
  /// Answers R(lo, alpha) = mass of [lo, lo+alpha]. Always callable; for
  /// hierarchy methods this queries the tree directly.
  std::function<double(double lo, double alpha)> range_query;
};

/// \brief One client shard's perturbed reports, in the mechanism's wire
/// format. Opaque to callers; produced by Protocol::EncodePerturbBatch and
/// consumed by Accumulator::Absorb.
class ReportChunk {
 public:
  virtual ~ReportChunk() = default;
  /// Reports carried (>= the number of encoded values for multi-report
  /// strategies such as HH divide-budget).
  virtual size_t num_reports() const = 0;
};

/// \brief Mergeable server-side aggregation state.
class Accumulator {
 public:
  virtual ~Accumulator() = default;
  /// Folds one chunk in. Fails on a chunk from a different protocol family.
  virtual Status Absorb(const ReportChunk& chunk) = 0;
  /// Adds another accumulator's state (exact, associative for all built-in
  /// protocols). Fails on a shape mismatch.
  virtual Status Merge(const Accumulator& other) = 0;
  /// Reports absorbed so far (across merges).
  virtual uint64_t num_reports() const = 0;
  /// Exports the exact integer aggregation state for transport (see
  /// AccumulatorState). Lossless for every built-in protocol.
  virtual AccumulatorState ExportState() const = 0;
  /// Replaces this accumulator's state with `state`. The shape (table count
  /// and per-table sizes) must match this accumulator's family; mismatches
  /// are InvalidArgument and leave the accumulator unchanged. Typically
  /// called on a fresh accumulator when decoding a wire sketch frame,
  /// which is then Merge()d into the coordinator's aggregate.
  virtual Status ImportState(const AccumulatorState& state) = 0;
};

/// \brief A distribution-estimation protocol under the batched contract.
class Protocol {
 public:
  virtual ~Protocol() = default;

  /// Display name, e.g. "SW-EMS", "CFO-bin-32".
  virtual const std::string& name() const = 0;
  /// True iff Reconstruct fills MethodOutput::distribution.
  virtual bool yields_distribution() const = 0;
  /// Reconstruction granularity d.
  virtual size_t granularity() const = 0;

  /// Fresh, empty aggregation state.
  virtual std::unique_ptr<Accumulator> MakeAccumulator() const = 0;

  /// Client side: encodes + perturbs a batch of raw values in [0,1].
  virtual Result<std::unique_ptr<ReportChunk>> EncodePerturbBatch(
      std::span<const double> values, Rng& rng) const = 0;

  /// Server side: inverts the aggregate into the method output.
  /// Requires acc.num_reports() > 0.
  virtual Result<MethodOutput> Reconstruct(const Accumulator& acc) const = 0;

  /// Serializes one of this protocol's chunks for wire transport. The
  /// payload layout is family-specific and documented byte-by-byte in
  /// docs/WIRE_FORMAT.md; framing, versioning, and method identification
  /// are the wire layer's job (src/wire/), not the payload's.
  virtual Status EncodeChunkPayload(const ReportChunk& chunk,
                                    ByteWriter* out) const = 0;
  /// Strictly decodes a chunk payload produced by EncodeChunkPayload.
  /// Truncation and shape mismatches (wrong domain/granularity for this
  /// protocol instance) are typed errors; the returned chunk behaves
  /// exactly like a locally encoded one under Absorb. A decoded chunk may
  /// hold the server-side form of its reports rather than the reports
  /// themselves (SW keeps only each report's output bucket), so
  /// EncodeChunkPayload on it may fail with FailedPrecondition; it never
  /// writes a partial or empty payload instead.
  virtual Result<std::unique_ptr<ReportChunk>> DecodeChunkPayload(
      ByteReader* in) const = 0;
};

using ProtocolPtr = std::unique_ptr<Protocol>;

/// Convenience single-chunk execution: one EncodePerturbBatch over all
/// values, one Absorb, one Reconstruct. The sharded many-chunk variant
/// lives in protocol/sharded.h.
Result<MethodOutput> RunProtocol(const Protocol& protocol,
                                 std::span<const double> values, Rng& rng);

/// Range-query oracle backed by a reconstructed distribution histogram.
std::function<double(double, double)> DistributionRangeQuery(
    std::vector<double> dist);

}  // namespace numdist
