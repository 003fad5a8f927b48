// Square Wave reporting + EM/EMS reconstruction behind the batched
// Protocol contract (paper §5). Clients perturb values through the
// continuous or discrete SW mechanism; the accumulator keeps only the
// per-output-bucket report counts (O(d~) state, exact integer merge); the
// reconstruction step runs EM or EMS once on the merged counts.
#pragma once

#include <memory>

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

}  // namespace numdist
