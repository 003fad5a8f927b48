// Collector service guarantees (serve/collector.h, serve/framing.h):
// length-prefixed transport framing is strict (clean EOF vs mid-frame EOF
// vs hostile length prefix), CollectorSession reproduces the in-process
// sharded aggregate bit-for-bit from report + sketch frames, and the
// exactly-once window survives the Export/Release race. The full
// collector lifecycle over a byte stream (CollectorServer::AddStream)
// lives in tests/net_test.cc.
#include "serve/collector.h"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "data/datasets.h"
#include "eval/streaming.h"
#include "protocol/sharded.h"
#include "serve/framing.h"
#include "wire/wire.h"

namespace numdist {
namespace {

std::vector<double> TestValues(size_t n) { return GoldenRatioValues(n); }

TEST(FramingTest, RoundTripAndCleanEof) {
  std::stringstream stream;
  ASSERT_TRUE(serve::WriteFrame(stream, "hello").ok());
  ASSERT_TRUE(serve::WriteFrame(stream, "").ok());
  ASSERT_TRUE(serve::WriteFrame(stream, std::string(1000, 'x')).ok());

  std::string frame;
  bool eof = false;
  ASSERT_TRUE(serve::ReadFrame(stream, &frame, &eof).ok());
  EXPECT_FALSE(eof);
  EXPECT_EQ(frame, "hello");
  ASSERT_TRUE(serve::ReadFrame(stream, &frame, &eof).ok());
  EXPECT_EQ(frame, "");
  ASSERT_TRUE(serve::ReadFrame(stream, &frame, &eof).ok());
  EXPECT_EQ(frame.size(), 1000u);

  // Clean end of stream between frames: OK + eof, not an error.
  ASSERT_TRUE(serve::ReadFrame(stream, &frame, &eof).ok());
  EXPECT_TRUE(eof);
  EXPECT_TRUE(frame.empty());
}

TEST(FramingTest, MidFrameEofIsAnError) {
  std::string encoded;
  {
    std::stringstream stream;
    ASSERT_TRUE(serve::WriteFrame(stream, "payload-bytes").ok());
    encoded = stream.str();
  }
  // Cut inside the length prefix.
  {
    std::stringstream cut(encoded.substr(0, 2));
    std::string frame;
    bool eof = false;
    const Status st = serve::ReadFrame(cut, &frame, &eof);
    EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
  }
  // Cut inside the frame body.
  {
    std::stringstream cut(encoded.substr(0, 8));
    std::string frame;
    bool eof = false;
    const Status st = serve::ReadFrame(cut, &frame, &eof);
    EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
  }
}

TEST(FramingTest, HostileLengthPrefixIsRejectedBeforeAllocation) {
  std::string bytes = "\xFF\xFF\xFF\xFF";  // 4 GiB claimed
  std::stringstream stream(bytes);
  std::string frame;
  bool eof = false;
  const Status st = serve::ReadFrame(stream, &frame, &eof);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(frame.empty());

  // Writers refuse the same ceiling.
  std::stringstream out;
  EXPECT_FALSE(serve::WriteFrame(out, "abc", /*max_bytes=*/2).ok());
}

TEST(CollectorSessionTest, DistributedRunMatchesInProcessShardedRun) {
  const std::vector<double> values = TestValues(20000);
  const auto spec = wire::ParseMethodSpec("sw-ems", 1.0, 64).ValueOrDie();
  auto protocol = wire::MakeProtocolForSpec(spec).ValueOrDie();

  ShardOptions opts;
  opts.shard_size = 4096;
  opts.threads = 2;
  auto reference =
      RunProtocolSharded(*protocol, values, 21, opts).ValueOrDie();

  // Three collector processes, round-robin over the shard set, then a
  // coordinator that merges their sketch frames.
  const size_t collectors = 3;
  std::vector<serve::CollectorSession> sessions;
  for (size_t c = 0; c < collectors; ++c) {
    sessions.push_back(serve::CollectorSession::Make(spec).ValueOrDie());
  }
  const size_t num_shards =
      (values.size() + opts.shard_size - 1) / opts.shard_size;
  for (size_t i = 0; i < num_shards; ++i) {
    const size_t begin = i * opts.shard_size;
    const size_t len = std::min(opts.shard_size, values.size() - begin);
    Rng rng(ShardSeed(21, i));
    auto chunk = protocol
                     ->EncodePerturbBatch(
                         std::span<const double>(values).subspan(begin, len),
                         rng)
                     .ValueOrDie();
    std::string frame;
    ASSERT_TRUE(wire::EncodeReportFrame(spec, *protocol, *chunk, &frame).ok());
    ASSERT_TRUE(sessions[i % collectors].HandleFrame(frame).ok());
  }

  auto coordinator = serve::CollectorSession::Make(spec).ValueOrDie();
  for (const serve::CollectorSession& session : sessions) {
    const std::string sketch = session.EncodeSketch().ValueOrDie();
    ASSERT_TRUE(coordinator.HandleFrame(sketch).ok());
  }
  EXPECT_EQ(coordinator.num_reports(), values.size());

  auto output = coordinator.Reconstruct().ValueOrDie();
  ASSERT_EQ(output.distribution.size(), reference.distribution.size());
  EXPECT_EQ(0, std::memcmp(output.distribution.data(),
                           reference.distribution.data(),
                           reference.distribution.size() * sizeof(double)));
}

TEST(CollectorSessionTest, RejectsForeignAndSnapshotFrames) {
  auto session =
      serve::CollectorSession::Make(
          wire::ParseMethodSpec("sw-ems", 1.0, 64).ValueOrDie())
          .ValueOrDie();

  // A frame for a different method configuration.
  const auto other_spec = wire::ParseMethodSpec("sw-em", 1.0, 64).ValueOrDie();
  auto other = serve::CollectorSession::Make(other_spec).ValueOrDie();
  const std::string foreign = other.EncodeSketch().ValueOrDie();
  EXPECT_FALSE(session.HandleFrame(foreign).ok());
  EXPECT_EQ(session.num_reports(), 0u);

  // Garbage.
  EXPECT_FALSE(session.HandleFrame(std::string("not a frame")).ok());
}

// A snapshot frame arriving AFTER the session has absorbed reports: the
// rejection must be typed and must leave the aggregate byte-identical —
// a live-estimation snapshot stream accidentally piped into a collector
// cannot perturb or double-count the aggregate.
TEST(CollectorSessionTest, SnapshotFrameAfterPriorReportsLeavesStateIntact) {
  const std::vector<double> values = TestValues(4000);
  const auto spec = wire::ParseMethodSpec("sw-ems", 1.0, 32).ValueOrDie();
  auto protocol = wire::MakeProtocolForSpec(spec).ValueOrDie();
  auto session = serve::CollectorSession::Make(spec).ValueOrDie();

  Rng rng(ShardSeed(31, 0));
  auto chunk =
      protocol->EncodePerturbBatch(values, rng).ValueOrDie();
  std::string report;
  ASSERT_TRUE(wire::EncodeReportFrame(spec, *protocol, *chunk, &report).ok());
  ASSERT_TRUE(session.HandleFrame(report).ok());
  const std::string sketch_before = session.EncodeSketch().ValueOrDie();

  // A well-formed snapshot frame of matching epsilon/d.
  SwEstimatorOptions options;
  options.epsilon = 1.0;
  options.d = 32;
  StreamingAggregator agg = StreamingAggregator::Make(options).ValueOrDie();
  Rng snap_rng(ShardSeed(31, 1));
  for (const double v : TestValues(500)) {
    agg.Accept(agg.estimator().PerturbOne(v, snap_rng));
  }
  std::string snapshot;
  ASSERT_TRUE(wire::EncodeSnapshotFrame(1.0, agg, &snapshot).ok());

  const Status rejected = session.HandleFrame(snapshot);
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument)
      << rejected.ToString();
  EXPECT_EQ(session.num_reports(), values.size());
  EXPECT_EQ(session.EncodeSketch().ValueOrDie(), sketch_before);

  // The session keeps serving: a later report frame still absorbs.
  Rng rng2(ShardSeed(31, 2));
  auto chunk2 = protocol
                    ->EncodePerturbBatch(
                        std::span<const double>(values).subspan(0, 100), rng2)
                    .ValueOrDie();
  std::string report2;
  ASSERT_TRUE(
      wire::EncodeReportFrame(spec, *protocol, *chunk2, &report2).ok());
  EXPECT_TRUE(session.HandleFrame(report2).ok());
  EXPECT_EQ(session.num_reports(), values.size() + 100);
}

// One tenant-tagged report frame per tenant, for the budget tests below.
std::string TenantReportFrame(const wire::MethodSpec& spec,
                              const Protocol& protocol, uint32_t tenant,
                              size_t reports, uint64_t seed) {
  const std::vector<double> values = TestValues(reports);
  Rng rng(ShardSeed(seed, tenant));
  auto chunk = protocol.EncodePerturbBatch(values, rng).ValueOrDie();
  std::string frame;
  const Status st =
      wire::EncodeReportFrame(spec, tenant, protocol, *chunk, &frame);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return frame;
}

// Over-budget frames are typed FailedPrecondition rejections that leave
// EVERY accumulator untouched — the offending tenant's and everyone
// else's (ExportState byte-compare), and the spend is not charged.
TEST(CollectorSessionTest, OverBudgetTenantIsRejectedWithoutSideEffects) {
  const auto spec = wire::ParseMethodSpec("sw-ems", 1.0, 32).ValueOrDie();
  auto protocol = wire::MakeProtocolForSpec(spec).ValueOrDie();
  auto session = serve::CollectorSession::Make(spec).ValueOrDie();
  session.SetTenantBudget(1, {.max_reports = 250});

  // Tenant 2 (unlimited) and tenant 1's first frame both land.
  ASSERT_TRUE(
      session.HandleFrame(TenantReportFrame(spec, *protocol, 2, 300, 5))
          .ok());
  ASSERT_TRUE(
      session.HandleFrame(TenantReportFrame(spec, *protocol, 1, 200, 5))
          .ok());
  EXPECT_EQ(session.ledger()->spent_reports(1), 200u);

  const std::string total_before = session.EncodeSketch().ValueOrDie();
  const auto tenant1_before = session.ExportTenantState(1).ValueOrDie();
  const auto tenant2_before = session.ExportTenantState(2).ValueOrDie();

  // 200 + 100 > 250: typed rejection, nothing moves, nothing charged.
  const Status over =
      session.HandleFrame(TenantReportFrame(spec, *protocol, 1, 100, 6));
  EXPECT_EQ(over.code(), StatusCode::kFailedPrecondition) << over.ToString();
  EXPECT_EQ(session.ledger()->spent_reports(1), 200u);
  EXPECT_EQ(session.num_reports(), 500u);
  EXPECT_EQ(session.EncodeSketch().ValueOrDie(), total_before);
  const auto tenant1_after = session.ExportTenantState(1).ValueOrDie();
  const auto tenant2_after = session.ExportTenantState(2).ValueOrDie();
  EXPECT_EQ(tenant1_after.num_reports, tenant1_before.num_reports);
  EXPECT_EQ(tenant2_after.num_reports, tenant2_before.num_reports);
  ASSERT_EQ(tenant1_after.tables.size(), tenant1_before.tables.size());
  for (size_t t = 0; t < tenant1_after.tables.size(); ++t) {
    EXPECT_EQ(tenant1_after.tables[t].counts,
              tenant1_before.tables[t].counts);
  }
  for (size_t t = 0; t < tenant2_after.tables.size(); ++t) {
    EXPECT_EQ(tenant2_after.tables[t].counts,
              tenant2_before.tables[t].counts);
  }

  // A frame that still fits the remaining budget is accepted.
  EXPECT_TRUE(
      session.HandleFrame(TenantReportFrame(spec, *protocol, 1, 50, 7)).ok());
  EXPECT_EQ(session.ledger()->spent_reports(1), 250u);
}

// The epsilon odometer: the cap is cumulative epsilon spend (reports ×
// the session epsilon), independent of the report cap.
TEST(CollectorSessionTest, EpsilonBudgetCapsAreEnforced) {
  const auto spec = wire::ParseMethodSpec("sw-ems", 2.0, 32).ValueOrDie();
  auto protocol = wire::MakeProtocolForSpec(spec).ValueOrDie();
  auto session = serve::CollectorSession::Make(spec).ValueOrDie();
  // 100 reports at epsilon 2.0 = 200.0 spent; cap at 300.
  session.SetTenantBudget(4, {.max_epsilon = 300.0});

  ASSERT_TRUE(
      session.HandleFrame(TenantReportFrame(spec, *protocol, 4, 100, 8))
          .ok());
  const Status over =
      session.HandleFrame(TenantReportFrame(spec, *protocol, 4, 100, 9));
  EXPECT_EQ(over.code(), StatusCode::kFailedPrecondition) << over.ToString();
  EXPECT_NE(over.message().find("epsilon"), std::string::npos)
      << over.ToString();
  // 100 + 50 = 150 reports -> epsilon 300.0 == the cap: allowed.
  EXPECT_TRUE(
      session.HandleFrame(TenantReportFrame(spec, *protocol, 4, 50, 10))
          .ok());
}

// Untenanted sessions stay byte-compatible: a default-tenant budget also
// caps untagged frames, and tenant-0-tagged frames route to the default
// accumulator (the flag is normalized away on the wire).
TEST(CollectorSessionTest, DefaultTenantBudgetCapsUntaggedFrames) {
  const auto spec = wire::ParseMethodSpec("sw-ems", 1.0, 32).ValueOrDie();
  auto protocol = wire::MakeProtocolForSpec(spec).ValueOrDie();

  // Tenant-0 tagging is normalized: the encoder emits the legacy bytes.
  std::string tagged, untagged;
  const std::vector<double> values = TestValues(64);
  Rng rng_a(ShardSeed(12, 0));
  auto chunk_a = protocol->EncodePerturbBatch(values, rng_a).ValueOrDie();
  ASSERT_TRUE(wire::EncodeReportFrame(spec, wire::kDefaultTenant, *protocol,
                                      *chunk_a, &tagged)
                  .ok());
  Rng rng_b(ShardSeed(12, 0));
  auto chunk_b = protocol->EncodePerturbBatch(values, rng_b).ValueOrDie();
  ASSERT_TRUE(
      wire::EncodeReportFrame(spec, *protocol, *chunk_b, &untagged).ok());
  EXPECT_EQ(tagged, untagged);

  auto session = serve::CollectorSession::Make(spec).ValueOrDie();
  session.SetTenantBudget(wire::kDefaultTenant, {.max_reports = 100});
  ASSERT_TRUE(session.HandleFrame(untagged).ok());
  const Status over = session.HandleFrame(
      TenantReportFrame(spec, *protocol, wire::kDefaultTenant, 64, 13));
  EXPECT_EQ(over.code(), StatusCode::kFailedPrecondition) << over.ToString();
  EXPECT_EQ(session.num_reports(), 64u);
}

// ---------------------------------------------------------------------------
// SequenceTracker window semantics under the Export/Release race: an
// Export may fold a claim into the floor while its absorb is still in
// flight on another executor slot. If that absorb then fails, the Release
// must re-open the window — otherwise the client's retry is rejected as a
// duplicate and the frame is silently lost.

TEST(SequenceTrackerTest, ReleaseBelowTheFloorReopensTheWindow) {
  serve::SequenceTracker tracker;
  ASSERT_TRUE(tracker.Claim(7, 1));
  ASSERT_TRUE(tracker.Claim(7, 2));
  ASSERT_TRUE(tracker.Claim(7, 3));
  // Export folds 1..3 into the floor...
  {
    const std::vector<serve::WalSeqEntry> entries = tracker.Export();
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].epoch, 7u);
    EXPECT_EQ(entries[0].floor, 3u);
    EXPECT_TRUE(entries[0].sparse.empty());
  }
  // ...then seq 2's in-flight absorb fails and releases its claim.
  tracker.Release(7, 2);
  // The retry must be accepted exactly once, then dedup again.
  EXPECT_TRUE(tracker.Claim(7, 2));
  EXPECT_FALSE(tracker.Claim(7, 2));
  // Still-absorbed neighbors stay duplicates throughout.
  EXPECT_FALSE(tracker.Claim(7, 1));
  EXPECT_FALSE(tracker.Claim(7, 3));
}

TEST(SequenceTrackerTest, ExportNeverPersistsAReleasedClaimAsAbsorbed) {
  serve::SequenceTracker tracker;
  for (uint64_t seq = 1; seq <= 4; ++seq) {
    ASSERT_TRUE(tracker.Claim(9, seq));
  }
  ASSERT_EQ(tracker.Export().at(0).floor, 4u);
  tracker.Release(9, 2);
  // A checkpoint cut between the release and the retry must carry the
  // hole: the floor drops below it and the genuinely absorbed seqs above
  // it move back into the sparse set.
  const std::vector<serve::WalSeqEntry> entries = tracker.Export();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].floor, 1u);
  EXPECT_EQ(entries[0].sparse, (std::vector<uint64_t>{3, 4}));
  // A tracker restored from that checkpoint accepts the retry and still
  // dedups the absorbed neighbors.
  serve::SequenceTracker restored;
  restored.Restore(entries);
  EXPECT_TRUE(restored.Claim(9, 2));
  EXPECT_FALSE(restored.Claim(9, 3));
  EXPECT_FALSE(restored.Claim(9, 1));
}

}  // namespace
}  // namespace numdist
