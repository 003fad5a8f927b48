// Square Wave reporting + EM/EMS reconstruction behind the batched
// Protocol contract (paper §5). Clients perturb values through the
// continuous or discrete SW mechanism; the accumulator keeps only the
// per-output-bucket report counts (O(d~) state, exact integer merge); the
// reconstruction step runs EM or EMS once on the merged counts.
#pragma once

#include <memory>
#include <vector>

#include "core/sw_estimator.h"
#include "protocol/protocol.h"

namespace numdist {

/// Builds the SW protocol for the given estimator configuration. The name
/// is "SW-EMS" or "SW-EM" according to `options.post`.
Result<ProtocolPtr> MakeSwProtocol(const SwEstimatorOptions& options);

/// The estimator (transition model included) an SW protocol reconstructs
/// with, shared rather than copied — so a live estimator can run on the
/// model the protocol already built. Null for any other protocol.
std::shared_ptr<const SwEstimator> SwEstimatorOf(const Protocol& protocol);

/// A client-encoded chunk of an SW protocol holding exactly `reports`, as
/// if EncodePerturbBatch had produced them: raw SwEstimator reports (a
/// real for the continuous pipeline, a bucket index as a double for the
/// discrete one). Lets a caller push a chosen report set through
/// EncodeChunkPayload or Absorb, whose checks it meets unfiltered.
/// InvalidArgument for any other protocol.
Result<std::unique_ptr<ReportChunk>> MakeSwReportChunk(
    const Protocol& protocol, std::vector<double> reports);

}  // namespace numdist
