#include "protocol/sw_protocol.h"

#include <cmath>
#include <memory>
#include <utility>

namespace numdist {

namespace {

// Wire format: the raw per-user SW reports (a real in [-b, 1+b] for the
// continuous pipeline, an output bucket index for the discrete one).
class SwChunk final : public ReportChunk {
 public:
  size_t num_reports() const override { return reports.size(); }
  std::vector<double> reports;
  size_t output_buckets = 0;  // aggregation shape the chunk was encoded for
  bool discrete = false;      // bucketize-before-randomize pipeline
};

class SwAccumulator final : public Accumulator {
 public:
  SwAccumulator(const SwEstimator* estimator, size_t buckets)
      : estimator_(estimator), counts_(buckets, 0) {}

  Status Absorb(const ReportChunk& chunk) override {
    const auto* sw_chunk = dynamic_cast<const SwChunk*>(&chunk);
    if (sw_chunk == nullptr) {
      return Status::InvalidArgument("SW: chunk from a different protocol");
    }
    if (sw_chunk->output_buckets != counts_.size()) {
      return Status::InvalidArgument("SW: chunk shape mismatch");
    }
    if (sw_chunk->discrete) {
      // Discrete reports index the count vector directly; reports come
      // from untrusted clients, so range-check before aggregation
      // (the continuous pipeline clamps instead).
      for (double r : sw_chunk->reports) {
        if (!(r >= 0.0) || r >= static_cast<double>(counts_.size())) {
          return Status::InvalidArgument("SW: report out of output domain");
        }
      }
    }
    const std::vector<uint64_t> batch =
        estimator_->Aggregate(sw_chunk->reports);
    for (size_t j = 0; j < counts_.size(); ++j) counts_[j] += batch[j];
    n_ += sw_chunk->reports.size();
    return Status::OK();
  }

  Status Merge(const Accumulator& other) override {
    const auto* sw_other = dynamic_cast<const SwAccumulator*>(&other);
    if (sw_other == nullptr || sw_other->counts_.size() != counts_.size()) {
      return Status::InvalidArgument("SW: accumulator shape mismatch");
    }
    for (size_t j = 0; j < counts_.size(); ++j) {
      counts_[j] += sw_other->counts_[j];
    }
    n_ += sw_other->n_;
    return Status::OK();
  }

  uint64_t num_reports() const override { return n_; }
  const std::vector<uint64_t>& counts() const { return counts_; }

  AccumulatorState ExportState() const override {
    AccumulatorState state;
    state.num_reports = n_;
    AccumulatorTable table;
    table.n = n_;
    table.counts.assign(counts_.begin(), counts_.end());
    state.tables.push_back(std::move(table));
    return state;
  }

  Status ImportState(const AccumulatorState& state) override {
    if (state.tables.size() != 1 ||
        state.tables[0].counts.size() != counts_.size()) {
      return Status::InvalidArgument("SW: accumulator state shape mismatch");
    }
    if (state.tables[0].n != state.num_reports) {
      return Status::InvalidArgument(
          "SW: inconsistent report counts in accumulator state");
    }
    // Every SW report lands in exactly one output bucket, so the counts
    // must be non-negative and sum to the report count — cheap integrity
    // checks that reject corrupted-but-well-shaped state. The sum is
    // overflow-checked: counts crafted to wrap mod 2^64 back onto the
    // report count must not pass.
    uint64_t total = 0;
    for (int64_t c : state.tables[0].counts) {
      if (c < 0) {
        return Status::InvalidArgument(
            "SW: negative bucket count in accumulator state");
      }
      const uint64_t u = static_cast<uint64_t>(c);
      if (u > UINT64_MAX - total) {
        return Status::InvalidArgument(
            "SW: bucket counts overflow in accumulator state");
      }
      total += u;
    }
    if (total != state.num_reports) {
      return Status::InvalidArgument(
          "SW: bucket counts do not sum to the report count");
    }
    for (size_t j = 0; j < counts_.size(); ++j) {
      counts_[j] = static_cast<uint64_t>(state.tables[0].counts[j]);
    }
    n_ = state.num_reports;
    return Status::OK();
  }

 private:
  const SwEstimator* estimator_;
  std::vector<uint64_t> counts_;
  uint64_t n_ = 0;
};

class SwProtocol final : public Protocol {
 public:
  explicit SwProtocol(std::shared_ptr<const SwEstimator> estimator)
      : estimator_(std::move(estimator)),
        name_(estimator_->options().post == SwEstimatorOptions::Post::kEms
                  ? "SW-EMS"
                  : "SW-EM") {}

  const std::shared_ptr<const SwEstimator>& estimator() const {
    return estimator_;
  }

  const std::string& name() const override { return name_; }
  bool yields_distribution() const override { return true; }
  size_t granularity() const override { return estimator_->options().d; }

  std::unique_ptr<Accumulator> MakeAccumulator() const override {
    return std::make_unique<SwAccumulator>(estimator_.get(),
                                           estimator_->output_buckets());
  }

  Result<std::unique_ptr<ReportChunk>> EncodePerturbBatch(
      std::span<const double> values, Rng& rng) const override {
    auto chunk = std::make_unique<SwChunk>();
    chunk->output_buckets = estimator_->output_buckets();
    chunk->discrete =
        estimator_->options().pipeline ==
        SwEstimatorOptions::Pipeline::kBucketizeBeforeRandomize;
    estimator_->PerturbBatch(values, rng, &chunk->reports);
    return std::unique_ptr<ReportChunk>(std::move(chunk));
  }

  // Wire payload (docs/WIRE_FORMAT.md): u8 pipeline flag, u32 output
  // buckets, u64 report count, then one f64 bit pattern per report.
  Status EncodeChunkPayload(const ReportChunk& chunk,
                            ByteWriter* out) const override {
    const auto* sw_chunk = dynamic_cast<const SwChunk*>(&chunk);
    if (sw_chunk == nullptr) {
      return Status::InvalidArgument("SW: chunk from a different protocol");
    }
    out->PutU8(sw_chunk->discrete ? 1 : 0);
    out->PutU32(static_cast<uint32_t>(sw_chunk->output_buckets));
    out->PutU64(sw_chunk->reports.size());
    for (double r : sw_chunk->reports) out->PutF64(r);
    return Status::OK();
  }

  Result<std::unique_ptr<ReportChunk>> DecodeChunkPayload(
      ByteReader* in) const override {
    NUMDIST_ASSIGN_OR_RETURN(const uint8_t discrete, in->U8());
    if (discrete > 1) {
      return Status::InvalidArgument("SW: bad pipeline flag in chunk payload");
    }
    const bool expect_discrete =
        estimator_->options().pipeline ==
        SwEstimatorOptions::Pipeline::kBucketizeBeforeRandomize;
    if ((discrete == 1) != expect_discrete) {
      return Status::InvalidArgument(
          "SW: chunk pipeline does not match this protocol");
    }
    NUMDIST_ASSIGN_OR_RETURN(const uint32_t buckets, in->U32());
    if (buckets != estimator_->output_buckets()) {
      return Status::InvalidArgument(
          "SW: chunk output-bucket count does not match this protocol");
    }
    NUMDIST_ASSIGN_OR_RETURN(const uint64_t count, in->U64());
    if (count > in->remaining() / sizeof(uint64_t)) {
      return Status::OutOfRange(
          "SW: chunk report count exceeds the remaining payload");
    }
    auto chunk = std::make_unique<SwChunk>();
    chunk->discrete = discrete == 1;
    chunk->output_buckets = buckets;
    chunk->reports.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      NUMDIST_ASSIGN_OR_RETURN(const double r, in->F64());
      // Wire reports are untrusted. Finite out-of-range values are safe
      // downstream (the continuous path clamps, the discrete path
      // range-checks in Absorb), but a NaN would sail through the clamp —
      // NaN comparisons are all false — into a float->index cast that is
      // UB. Reject non-finite payloads here, at the trust boundary.
      if (!std::isfinite(r)) {
        return Status::InvalidArgument(
            "SW: non-finite report in chunk payload");
      }
      chunk->reports.push_back(r);
    }
    return std::unique_ptr<ReportChunk>(std::move(chunk));
  }

  Result<MethodOutput> Reconstruct(const Accumulator& acc) const override {
    const auto* sw_acc = dynamic_cast<const SwAccumulator*>(&acc);
    if (sw_acc == nullptr) {
      return Status::InvalidArgument("SW: accumulator from another protocol");
    }
    if (sw_acc->num_reports() == 0) {
      return Status::InvalidArgument("SW: no reports absorbed");
    }
    Result<EmResult> em = estimator_->Reconstruct(sw_acc->counts());
    if (!em.ok()) return em.status();
    MethodOutput out;
    out.distribution = std::move(em).value().estimate;
    out.range_query = DistributionRangeQuery(out.distribution);
    return out;
  }

 private:
  std::shared_ptr<const SwEstimator> estimator_;
  std::string name_;
};

}  // namespace

Result<ProtocolPtr> MakeSwProtocol(const SwEstimatorOptions& options) {
  Result<SwEstimator> estimator = SwEstimator::Make(options);
  if (!estimator.ok()) return estimator.status();
  return ProtocolPtr(new SwProtocol(
      std::make_shared<const SwEstimator>(std::move(estimator).value())));
}

std::shared_ptr<const SwEstimator> SwEstimatorOf(const Protocol& protocol) {
  const auto* sw = dynamic_cast<const SwProtocol*>(&protocol);
  return sw == nullptr ? nullptr : sw->estimator();
}

}  // namespace numdist
