#include "protocol/sw_protocol.h"

#include <bit>
#include <memory>
#include <span>
#include <utility>

namespace numdist {

namespace {

// Client-encoded chunks (EncodePerturbBatch, MakeSwReportChunk) carry the
// raw per-user SW reports — a real in [-b, 1+b] for the continuous
// pipeline, an output bucket index for the discrete one. The wire carries
// each report's output bucket instead (the client bucketizes at encode),
// and that is all a decoded chunk holds: the server only ever counts
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
  // A decoded index fell outside the output domain (possible when the
  // bucket count is not a power of two). Absorb, not decode, rejects it,
  // so a collector charges the tenant budget first.
  bool out_of_domain = false;
  size_t output_buckets = 0;  // aggregation shape the chunk was encoded for
  bool discrete = false;      // bucketize-before-randomize pipeline
};

// Bits per report on the wire: enough for the largest bucket index.
unsigned IndexBits(size_t output_buckets) {
  return static_cast<unsigned>(std::bit_width(output_buckets - 1));
}

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
  // Folds bucket indices in, all or nothing. Wire indices and discrete
  // reports come from untrusted clients, so one outside the output domain
  // rejects the whole chunk (continuous reports clamp instead).
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
    std::vector<double> reports;
    estimator_->PerturbBatch(values, rng, &reports);
    return WrapReports(std::move(reports));
  }

  // A client-encoded chunk of this protocol holding `reports`.
  std::unique_ptr<ReportChunk> WrapReports(std::vector<double> reports) const {
    auto chunk = std::make_unique<SwChunk>();
    chunk->output_buckets = estimator_->output_buckets();
    chunk->discrete = discrete();
    chunk->reports = std::move(reports);
    return chunk;
  }

  bool discrete() const {
    return estimator_->options().pipeline ==
           SwEstimatorOptions::Pipeline::kBucketizeBeforeRandomize;
  }

  // Wire payload (docs/WIRE_FORMAT.md): u8 pipeline flag, u32 output
  // buckets, u64 report count, then each report's output bucket packed at
  // IndexBits(output buckets) bits. The client runs the server's bucket
  // rule here, so a report that rule would reject fails now, at encode.
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
    if (sw_chunk->output_buckets != estimator_->output_buckets() ||
        sw_chunk->discrete != discrete()) {
      return Status::InvalidArgument("SW: chunk shape mismatch");
    }
    std::vector<uint32_t> indices(sw_chunk->reports.size());
    const SwEstimator::BucketizeCheck check =
        estimator_->BucketizeInto(sw_chunk->reports, indices.data());
    if (check.non_finite) {
      return Status::InvalidArgument("SW: non-finite report in chunk");
    }
    if (check.out_of_domain) {
      return Status::InvalidArgument("SW: report out of output domain");
    }
    out->PutU8(sw_chunk->discrete ? 1 : 0);
    out->PutU32(static_cast<uint32_t>(sw_chunk->output_buckets));
    out->PutU64(indices.size());
    out->PutPackedBits(indices, IndexBits(sw_chunk->output_buckets));
    return Status::OK();
  }

  Result<std::unique_ptr<ReportChunk>> DecodeChunkPayload(
      ByteReader* in) const override {
    NUMDIST_ASSIGN_OR_RETURN(const uint8_t discrete_flag, in->U8());
    if (discrete_flag > 1) {
      return Status::InvalidArgument("SW: bad pipeline flag in chunk payload");
    }
    if ((discrete_flag == 1) != discrete()) {
      return Status::InvalidArgument(
          "SW: chunk pipeline does not match this protocol");
    }
    NUMDIST_ASSIGN_OR_RETURN(const uint32_t buckets, in->U32());
    if (buckets != estimator_->output_buckets()) {
      return Status::InvalidArgument(
          "SW: chunk output-bucket count does not match this protocol");
    }
    NUMDIST_ASSIGN_OR_RETURN(const uint64_t count, in->U64());
    // count <= floor(8 * room / width), without forming count * width.
    const unsigned width = IndexBits(buckets);
    const size_t room = in->remaining();
    if (count > room / width * 8 + room % width * 8 / width) {
      return Status::OutOfRange(
          "SW: chunk report count exceeds the remaining payload");
    }
    NUMDIST_ASSIGN_OR_RETURN(const std::span<const uint8_t> packed,
                             in->Take(PackedBytes(count, width)));
    // One byte encoding per report set: the padding bits must be zero.
    const unsigned used = count % 8 * width % 8;  // bits used in last byte
    if (used != 0 && (packed.back() >> used) != 0) {
      return Status::InvalidArgument(
          "SW: nonzero padding bits in chunk payload");
    }
    auto chunk = std::make_unique<SwChunk>();
    chunk->decoded = true;
    chunk->discrete = discrete_flag == 1;
    chunk->output_buckets = buckets;
    chunk->indices.resize(count);
    UnpackBits(packed, width, chunk->indices.data(), count);
    // Every width-bit index is in range when the bucket count is a power
    // of two; otherwise a hostile one may not be.
    if (!std::has_single_bit(buckets)) {
      bool out_of_domain = false;
      for (const uint32_t j : chunk->indices) out_of_domain |= j >= buckets;
      chunk->out_of_domain = out_of_domain;
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

Result<std::unique_ptr<ReportChunk>> MakeSwReportChunk(
    const Protocol& protocol, std::vector<double> reports) {
  const auto* sw = dynamic_cast<const SwProtocol*>(&protocol);
  if (sw == nullptr) {
    return Status::InvalidArgument("SW: not an SW protocol");
  }
  return sw->WrapReports(std::move(reports));
}

}  // namespace numdist
