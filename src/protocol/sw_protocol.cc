#include "protocol/sw_protocol.h"

#include <algorithm>
#include <memory>
#include <span>
#include <utility>

namespace numdist {

namespace {

// Client-encoded chunks (EncodePerturbBatch) carry the raw per-user SW
// reports — a real in [-b, 1+b] for the continuous pipeline, an output
// bucket index for the discrete one — because that is what the wire
// carries. Decoded chunks (DecodeChunkPayload) carry each report's output
// bucket instead, computed once at decode: the server only ever counts
// them, so a decoded chunk absorbs like its encoder's but cannot be
// re-encoded.
class SwChunk final : public ReportChunk {
 public:
  size_t num_reports() const override {
    return decoded ? indices.size() : reports.size();
  }
  std::vector<double> reports;    // client-encoded chunks
  std::vector<uint32_t> indices;  // decoded chunks
  bool decoded = false;
  // A decoded discrete report fell outside the output domain. Absorb, not
  // decode, rejects it, so a collector charges the tenant budget first.
  bool out_of_domain = false;
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
    if (sw_chunk->decoded) {
      return Count(sw_chunk->indices, sw_chunk->out_of_domain);
    }
    std::vector<uint32_t> indices(sw_chunk->reports.size());
    const SwEstimator::BucketizeCheck check =
        estimator_->BucketizeInto(sw_chunk->reports, indices.data());
    if (check.non_finite) {
      return Status::InvalidArgument("SW: non-finite report in chunk");
    }
    return Count(indices, check.out_of_domain);
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
  // Folds bucket indices in, all or nothing. Discrete reports come from
  // untrusted clients, so one outside the output domain rejects the whole
  // chunk (the continuous pipeline clamps instead).
  Status Count(std::span<const uint32_t> indices, bool out_of_domain) {
    if (out_of_domain) {
      return Status::InvalidArgument("SW: report out of output domain");
    }
    for (const uint32_t j : indices) ++counts_[j];
    n_ += indices.size();
    return Status::OK();
  }

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
    if (sw_chunk->decoded) {
      return Status::FailedPrecondition(
          "SW: a decoded chunk holds bucket indices and cannot be "
          "re-encoded");
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
    if (count > in->remaining() / sizeof(double)) {
      return Status::OutOfRange(
          "SW: chunk report count exceeds the remaining payload");
    }
    NUMDIST_ASSIGN_OR_RETURN(const std::span<const uint8_t> payload,
                             in->Take(count * sizeof(double)));
    auto chunk = std::make_unique<SwChunk>();
    chunk->decoded = true;
    chunk->discrete = discrete == 1;
    chunk->output_buckets = buckets;
    chunk->indices.resize(count);
    // Straight from the wire bytes to bucket indices, a cache-sized block
    // at a time. Wire reports are untrusted: finite out-of-range values
    // are safe (clamped, or flagged for Absorb to reject), but a NaN or
    // infinity fails the whole chunk here, at the trust boundary.
    constexpr size_t kBlock = 512;
    double block[kBlock];
    bool non_finite = false;
    for (size_t i = 0; i < count; i += kBlock) {
      const size_t m = std::min<size_t>(kBlock, count - i);
      LoadLittleEndianF64s(payload.subspan(i * sizeof(double),
                                           m * sizeof(double)),
                           std::span<double>(block, m));
      const SwEstimator::BucketizeCheck check = estimator_->BucketizeInto(
          std::span<const double>(block, m), chunk->indices.data() + i);
      non_finite |= check.non_finite;
      chunk->out_of_domain |= check.out_of_domain;
    }
    if (non_finite) {
      return Status::InvalidArgument("SW: non-finite report in chunk payload");
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
