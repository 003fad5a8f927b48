// Collector service guarantees (serve/collector.h, serve/framing.h):
// length-prefixed transport framing is strict (clean EOF vs mid-frame EOF
// vs hostile length prefix), CollectorSession reproduces the in-process
// sharded aggregate bit-for-bit from report + sketch frames, sibling
// sessions over one shared protocol fold back to the same bytes, a
// rejected SW report frame moves neither an accumulator nor the budget
// ledger, and the exactly-once window survives the Export/Release race.
// The full collector lifecycle over a byte stream
// (CollectorServer::AddStream) lives in tests/net_test.cc.
#include "serve/collector.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <pthread.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cerrno>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "data/datasets.h"
#include "eval/streaming.h"
#include "protocol/sharded.h"
#include "protocol/sw_protocol.h"
#include "serve/framing.h"
#include "serve/wal.h"
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

void IgnoreSignal(int) {}

// The gather-write loop behind WAL records and the replication stream
// must put every byte of head and body on the fd in order, whichever of
// them is empty or large, across short writes and EINTR. A small pipe
// drained slowly while the writer is signalled (handler installed without
// SA_RESTART) makes writev return short counts and EINTR over and over.
TEST(FramingTest, WriteAllFdSurvivesShortWritesAndEintr) {
  const auto pattern = [](size_t len, size_t salt) {
    std::string bytes(len, '\0');
    for (size_t j = 0; j < len; ++j) {
      bytes[j] = static_cast<char>((salt * 131 + j * 7) & 0xFF);
    }
    return bytes;
  };
  const std::pair<std::string, std::string> writes[] = {
      {pattern(9, 1), pattern(300000, 2)},
      {"", pattern(100000, 3)},
      {pattern(100000, 4), ""},
      {pattern(7, 5), pattern(1, 6)},
      {"", ""}};
  std::string expected;
  for (const auto& [head, body] : writes) expected += head + body;

  struct sigaction action {};
  struct sigaction previous {};
  action.sa_handler = IgnoreSignal;
  sigemptyset(&action.sa_mask);
  ASSERT_EQ(sigaction(SIGUSR1, &action, &previous), 0);
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  (void)fcntl(fds[1], F_SETPIPE_SZ, 4096);

  std::atomic<bool> writing{true};
  Status written = Status::OK();
  std::thread writer([&] {
    for (const auto& [head, body] : writes) {
      if (written.ok()) written = serve::WriteAllFd(fds[1], head, body);
    }
    writing.store(false);
    close(fds[1]);
  });
  std::string received;
  char buf[1500];
  for (;;) {
    if (writing.load()) pthread_kill(writer.native_handle(), SIGUSR1);
    const ssize_t got = read(fds[0], buf, sizeof(buf));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    received.append(buf, static_cast<size_t>(got));
  }
  writer.join();
  close(fds[0]);
  sigaction(SIGUSR1, &previous, nullptr);
  EXPECT_TRUE(written.ok()) << written.ToString();
  EXPECT_EQ(received.size(), expected.size());
  EXPECT_TRUE(received == expected);
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
// SW reports at the trust boundary. Clients bucketize before they send
// (wire version 2), so a report the bucket rule rejects fails at encode
// and writes nothing; the collector sees only packed bucket indices. A
// malformed packed payload fails at decode, before the tenant budget is
// charged; an index outside the output domain fails at absorb, after it.
// None of them may move state.

void ExpectSameCounts(const AccumulatorState& a, const AccumulatorState& b,
                      const std::string& context) {
  EXPECT_EQ(a.num_reports, b.num_reports) << context;
  ASSERT_EQ(a.tables.size(), b.tables.size()) << context;
  for (size_t t = 0; t < a.tables.size(); ++t) {
    EXPECT_EQ(a.tables[t].counts, b.tables[t].counts) << context;
  }
}

// Wire bits per report of an SW protocol (docs/WIRE_FORMAT.md).
unsigned IndexBitsOf(const Protocol& protocol) {
  return static_cast<unsigned>(
      std::bit_width(SwEstimatorOf(protocol)->output_buckets() - 1));
}

// Overwrites packed index `index` of an SW report frame carrying `count`
// reports at `width` bits each (the packed indices are the frame's last
// PackedBytes(count, width) bytes).
std::string WithIndex(std::string frame, size_t count, unsigned width,
                      size_t index, uint32_t value) {
  const size_t start = frame.size() - PackedBytes(count, width);
  for (unsigned b = 0; b < width; ++b) {
    const size_t bit = index * width + b;
    const auto mask = static_cast<unsigned char>(1u << (bit % 8));
    auto byte = static_cast<unsigned char>(frame[start + bit / 8]);
    byte = ((value >> b) & 1) != 0 ? byte | mask : byte & ~mask;
    frame[start + bit / 8] = static_cast<char>(byte);
  }
  return frame;
}

// The raw client reports of `count` values under `protocol`'s estimator.
std::vector<double> RawReports(const Protocol& protocol, size_t count,
                               uint64_t seed) {
  Rng rng(seed);
  std::vector<double> reports;
  SwEstimatorOf(protocol)->PerturbBatch(TestValues(count), rng, &reports);
  return reports;
}

SwEstimatorOptions DiscreteOptions(size_t d) {
  SwEstimatorOptions options;
  options.epsilon = 1.0;
  options.d = d;
  options.pipeline = SwEstimatorOptions::Pipeline::kBucketizeBeforeRandomize;
  return options;
}

TEST(CollectorSessionTest, RejectedReportsFailAtEncodeAndWriteNothing) {
  const auto spec = wire::ParseMethodSpec("sw-ems", 1.0, 32).ValueOrDie();
  const std::shared_ptr<const Protocol> continuous =
      wire::MakeProtocolForSpec(spec).ValueOrDie();
  const std::shared_ptr<const Protocol> discrete =
      MakeSwProtocol(DiscreteOptions(32)).ValueOrDie();
  const double inf = std::numeric_limits<double>::infinity();
  constexpr size_t kCount = 300;
  struct Bad {
    const Protocol* protocol;
    double value;
    const char* message;
  };
  const double buckets =
      static_cast<double>(SwEstimatorOf(*discrete)->output_buckets());
  std::vector<Bad> bad;
  for (const Protocol* protocol : {continuous.get(), discrete.get()}) {
    for (const double v : {std::nan(""), inf, -inf}) {
      bad.push_back({protocol, v, "SW: non-finite report in chunk"});
    }
  }
  for (const double v : {buckets, std::nextafter(0.0, -1.0), -1.0, 1e300}) {
    bad.push_back({discrete.get(), v, "SW: report out of output domain"});
  }
  for (const Bad& b : bad) {
    const std::vector<double> clean = RawReports(*b.protocol, kCount, 6);
    for (const size_t index : {size_t{0}, kCount / 2, kCount - 1}) {
      const std::string context = b.protocol->name() + " value " +
                                  std::to_string(b.value) + " at " +
                                  std::to_string(index);
      std::vector<double> reports = clean;
      reports[index] = b.value;
      auto chunk = MakeSwReportChunk(*b.protocol, reports).ValueOrDie();
      std::string payload;
      ByteWriter writer(&payload);
      const Status st = b.protocol->EncodeChunkPayload(*chunk, &writer);
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << context;
      EXPECT_EQ(st.message(), b.message) << context;
      EXPECT_TRUE(payload.empty()) << context;
      std::string frames = "earlier frames";
      EXPECT_EQ(
          wire::EncodeReportFrame(spec, *b.protocol, *chunk, &frames).code(),
          StatusCode::kInvalidArgument)
          << context;
      EXPECT_EQ(frames, "earlier frames") << context;
      // In-process absorb of the same chunk fails the same way.
      EXPECT_EQ(b.protocol->MakeAccumulator()->Absorb(*chunk).message(),
                b.message)
          << context;
    }
    // The reports without the bad one still encode and land.
    auto chunk = MakeSwReportChunk(*b.protocol, clean).ValueOrDie();
    std::string frame;
    ASSERT_TRUE(wire::EncodeReportFrame(spec, *b.protocol, *chunk, &frame).ok());
    auto decoded =
        wire::DecodeReportFrame(spec, *b.protocol, wire::FrameBytes(frame))
            .ValueOrDie();
    auto via_wire = b.protocol->MakeAccumulator();
    auto direct = b.protocol->MakeAccumulator();
    ASSERT_TRUE(via_wire->Absorb(*decoded).ok());
    ASSERT_TRUE(direct->Absorb(*chunk).ok());
    ExpectSameCounts(direct->ExportState(), via_wire->ExportState(),
                     b.protocol->name());
  }
  EXPECT_EQ(MakeSwReportChunk(*wire::MakeProtocolForSpec(
                                   wire::ParseMethodSpec("cfo-16", 1.0, 32)
                                       .ValueOrDie())
                                   .ValueOrDie(),
                              {0.5})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(CollectorSessionTest, HostilePackedPayloadsFailWithoutSideEffects) {
  // d = 1000: 1000 output buckets at 10 bits per report.
  const auto spec = wire::ParseMethodSpec("sw-ems", 1.0, 1000).ValueOrDie();
  auto session = serve::CollectorSession::Make(spec).ValueOrDie();
  const Protocol& protocol = *session.protocol();
  const unsigned width = IndexBitsOf(protocol);
  ASSERT_EQ(width, 10u);
  session.SetTenantBudget(wire::kDefaultTenant, {.max_reports = 1000});
  ASSERT_TRUE(session
                  .HandleFrame(TenantReportFrame(
                      spec, protocol, wire::kDefaultTenant, 200, 5))
                  .ok());
  const AccumulatorState before = session.ExportState();
  const auto sketches_before = session.EncodeSketches().ValueOrDie();

  // 301 reports fill 3010 bits: 376 bytes, 6 padding bits in the last.
  constexpr size_t kCount = 301;
  const std::string clean =
      TenantReportFrame(spec, protocol, wire::kDefaultTenant, kCount, 6);
  const size_t packed = PackedBytes(kCount, width);
  ASSERT_EQ(packed, 377u);
  const size_t count_at = clean.size() - packed - sizeof(uint64_t);
  const auto with_count = [&](uint64_t count) {
    std::string frame = clean;
    std::string bytes;
    ByteWriter(&bytes).PutU64(count);
    frame.replace(count_at, bytes.size(), bytes);
    return frame;
  };
  struct Hostile {
    std::string name;
    std::string frame;
    StatusCode code;
  };
  std::vector<Hostile> hostile;
  for (const uint64_t lie : {uint64_t{kCount + 1}, uint64_t{kCount + 8},
                             uint64_t{1} << 61, ~uint64_t{0}}) {
    hostile.push_back({"count " + std::to_string(lie), with_count(lie),
                       StatusCode::kOutOfRange});
  }
  // Fewer reports than bytes: the payload ends early, trailing bytes.
  hostile.push_back(
      {"count 300", with_count(kCount - 1), StatusCode::kInvalidArgument});
  for (unsigned bit = 2; bit < 8; ++bit) {
    std::string frame = clean;
    frame.back() = static_cast<char>(frame.back() | (1 << bit));
    hostile.push_back({"padding bit " + std::to_string(bit), frame,
                       StatusCode::kInvalidArgument});
  }
  hostile.push_back({"one byte short", clean.substr(0, clean.size() - 1),
                     StatusCode::kOutOfRange});
  hostile.push_back({"one byte over", clean + std::string(1, '\0'),
                     StatusCode::kInvalidArgument});
  for (const Hostile& h : hostile) {
    const Status st = session.HandleFrame(h.frame);
    EXPECT_EQ(st.code(), h.code) << h.name << ": " << st.ToString();
    if (h.name.starts_with("padding")) {
      EXPECT_EQ(st.message(), "SW: nonzero padding bits in chunk payload");
    }
    EXPECT_EQ(session.ledger()->spent_reports(wire::kDefaultTenant), 200u)
        << h.name;
    ExpectSameCounts(before, session.ExportState(), h.name);
    EXPECT_EQ(session.EncodeSketches().ValueOrDie(), sketches_before)
        << h.name;
  }
  EXPECT_TRUE(session.HandleFrame(clean).ok());
  EXPECT_EQ(session.num_reports(), 200u + kCount);
}

// An index at or above the bucket count fits the wire width whenever the
// count is not a power of two. Absorb rejects it after the budget charge,
// on either pipeline: an over-budget frame still gets the budget error.
TEST(CollectorSessionTest, OutOfDomainIndexFailsAfterTheBudgetCharge) {
  const auto continuous_spec =
      wire::ParseMethodSpec("sw-ems", 1.0, 1000).ValueOrDie();
  const auto discrete_spec =
      wire::ParseMethodSpec("sw-ems", 1.0, 16).ValueOrDie();
  std::vector<std::pair<wire::MethodSpec, std::shared_ptr<const Protocol>>>
      cases = {
          {continuous_spec,
           wire::MakeProtocolForSpec(continuous_spec).ValueOrDie()},
          {discrete_spec, MakeSwProtocol(DiscreteOptions(16)).ValueOrDie()}};
  for (const auto& [spec, protocol] : cases) {
    const uint32_t buckets =
        static_cast<uint32_t>(SwEstimatorOf(*protocol)->output_buckets());
    const unsigned width = IndexBitsOf(*protocol);
    ASSERT_FALSE(std::has_single_bit(buckets)) << protocol->name();
    // The steps CollectorSession::AbsorbFrame runs, in its order: decode,
    // charge the tenant ledger, absorb, refund on failure. (A session
    // built from a MethodSpec refuses discrete frames, see below.)
    serve::TenantLedger ledger;
    ledger.SetBudget(wire::kDefaultTenant, {.max_reports = 150});
    auto acc = protocol->MakeAccumulator();
    const auto handle = [&](const std::string& frame) -> Status {
      NUMDIST_ASSIGN_OR_RETURN(
          std::unique_ptr<ReportChunk> chunk,
          wire::DecodeReportFrame(spec, *protocol, wire::FrameBytes(frame)));
      NUMDIST_RETURN_NOT_OK(ledger.Charge(
          wire::kDefaultTenant, chunk->num_reports(), spec.epsilon));
      const Status absorbed = acc->Absorb(*chunk);
      if (!absorbed.ok()) {
        ledger.Refund(wire::kDefaultTenant, chunk->num_reports());
      }
      return absorbed;
    };
    const auto frame_of = [&](size_t reports) {
      return TenantReportFrame(spec, *protocol, wire::kDefaultTenant, reports,
                               31);
    };
    ASSERT_TRUE(handle(frame_of(100)).ok());
    const AccumulatorState before = acc->ExportState();
    const std::string over_budget = frame_of(100);  // 100 + 100 > 150
    const std::string within_budget = frame_of(40);
    for (const uint32_t bad : {buckets, (uint32_t{1} << width) - 1}) {
      for (const size_t index : {size_t{0}, size_t{20}, size_t{39}}) {
        const std::string context = protocol->name() + " index " +
                                    std::to_string(bad) + " at " +
                                    std::to_string(index);
        const Status over =
            handle(WithIndex(over_budget, 100, width, index, bad));
        EXPECT_EQ(over.code(), StatusCode::kFailedPrecondition)
            << context << ": " << over.ToString();
        const Status out =
            handle(WithIndex(within_budget, 40, width, index, bad));
        EXPECT_EQ(out.code(), StatusCode::kInvalidArgument) << context;
        EXPECT_EQ(out.message(), "SW: report out of output domain")
            << context;
        EXPECT_EQ(ledger.spent_reports(wire::kDefaultTenant), 100u)
            << context;
        ExpectSameCounts(before, acc->ExportState(), context);
      }
    }
    // The highest in-domain index lands.
    EXPECT_TRUE(
        handle(WithIndex(within_budget, 40, width, 39, buckets - 1)).ok());
    EXPECT_EQ(ledger.spent_reports(wire::kDefaultTenant), 140u);
  }
}

// wire::MakeProtocolForSpec always builds the continuous pipeline (a
// MethodSpec has no pipeline field), so a session built from a spec
// refuses discrete-pipeline frames at decode and keeps no trace of them.
TEST(CollectorSessionTest, SpecBuiltSessionsRefuseDiscretePipelineFrames) {
  const auto spec = wire::ParseMethodSpec("sw-ems", 1.0, 16).ValueOrDie();
  auto session = serve::CollectorSession::Make(spec).ValueOrDie();
  auto discrete = MakeSwProtocol(DiscreteOptions(16)).ValueOrDie();
  const std::string frame =
      TenantReportFrame(spec, *discrete, wire::kDefaultTenant, 50, 3);
  const Status st = session.HandleFrame(frame);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_EQ(st.message(), "SW: chunk pipeline does not match this protocol");
  EXPECT_EQ(session.num_reports(), 0u);
  EXPECT_EQ(session.ledger()->spent_reports(wire::kDefaultTenant), 0u);
}

// Version 1 (f64 SW reports) is gone: its frames and its logs are version
// skew, named on both sides.
TEST(CollectorSessionTest, VersionOneFramesAndLogsAreVersionSkew) {
  const auto spec = wire::ParseMethodSpec("sw-ems", 1.0, 32).ValueOrDie();
  auto protocol = wire::MakeProtocolForSpec(spec).ValueOrDie();
  auto session = serve::CollectorSession::Make(spec).ValueOrDie();
  std::string frame =
      TenantReportFrame(spec, *protocol, wire::kDefaultTenant, 20, 4);
  ASSERT_EQ(frame[4], 2);
  frame[4] = 1;  // preamble version, u16 LE at offset 4
  const Status st = session.HandleFrame(frame);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
  EXPECT_EQ(st.message(),
            "wire: unsupported format version 1 (this build reads version 2)");
  EXPECT_EQ(session.num_reports(), 0u);

  const std::string path = testing::TempDir() + "serve_v1_header.wal";
  {
    std::string log("NDWL\x01\x00\x00\x00", serve::kWalHeaderBytes);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(log.data(), static_cast<std::streamsize>(log.size()));
  }
  const auto replayed = serve::ReplayWal(path, serve::WalConsumer{});
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(replayed.status().message(),
            "wal: unsupported WAL version 1 (this build reads version 2)");
  const auto opened = session.OpenWal(path);
  EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

// A decoded SW chunk holds bucket indices, not the reports it was sent
// with, so re-encoding it is a typed error that writes nothing.
TEST(CollectorSessionTest, DecodedSwChunksDoNotReEncode) {
  for (const auto pipeline :
       {SwEstimatorOptions::Pipeline::kRandomizeBeforeBucketize,
        SwEstimatorOptions::Pipeline::kBucketizeBeforeRandomize}) {
    SwEstimatorOptions options;
    options.d = 32;
    options.pipeline = pipeline;
    auto protocol = MakeSwProtocol(options).ValueOrDie();
    const auto spec = wire::ParseMethodSpec("sw-ems", 1.0, 32).ValueOrDie();
    for (const size_t reports : {size_t{0}, size_t{64}}) {
      Rng rng(3);
      auto chunk =
          protocol->EncodePerturbBatch(TestValues(reports), rng).ValueOrDie();
      std::string frame;
      ASSERT_TRUE(
          wire::EncodeReportFrame(spec, *protocol, *chunk, &frame).ok());
      auto decoded =
          wire::DecodeReportFrame(spec, *protocol, wire::FrameBytes(frame))
              .ValueOrDie();
      EXPECT_EQ(decoded->num_reports(), reports);
      std::string payload;
      ByteWriter writer(&payload);
      const Status st = protocol->EncodeChunkPayload(*decoded, &writer);
      EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
      EXPECT_TRUE(payload.empty());
    }
  }
}

// ---------------------------------------------------------------------------
// Sibling sessions (CollectorSession::MakeEmptyLike): one immutable
// protocol, built once, under any number of sessions that each own their
// accumulators, ledger and dedup window. The server's per-slot
// sub-sessions and its checkpoint scratch session are built this way, so
// spreading frames over siblings and folding them back must be
// byte-identical to one session absorbing everything.

// `count` seeded report frames of `reports` each; a nonzero `tenants`
// tags frame i with tenant 1 + i % tenants, and every frame carries
// sequence context (epoch 5, seq i + 1).
std::vector<std::string> SiblingFrames(const wire::MethodSpec& spec,
                                       const Protocol& protocol, size_t count,
                                       size_t reports, uint32_t tenants) {
  std::vector<std::string> frames;
  for (size_t i = 0; i < count; ++i) {
    const uint32_t tenant =
        tenants == 0 ? wire::kDefaultTenant
                     : 1 + static_cast<uint32_t>(i % tenants);
    std::string frame = TenantReportFrame(spec, protocol, tenant, reports,
                                          /*seed=*/40 + i);
    EXPECT_TRUE(
        wire::StampSequenceContext(&frame, {.epoch = 5, .seq = i + 1}).ok());
    frames.push_back(std::move(frame));
  }
  return frames;
}

TEST(CollectorSessionTest, EmptyLikeSharesTheProtocolAndOwnsItsState) {
  const auto spec = wire::ParseMethodSpec("sw-ems", 1.0, 32).ValueOrDie();
  auto session = serve::CollectorSession::Make(spec).ValueOrDie();
  const std::vector<std::string> frames =
      SiblingFrames(spec, *session.protocol(), 2, 100, /*tenants=*/1);
  session.SetTenantBudget(1, {.max_reports = 100});
  ASSERT_TRUE(session.HandleFrame(frames[0]).ok());

  const auto empty = serve::CollectorSession::Make(spec).ValueOrDie();
  serve::CollectorSession sibling = session.MakeEmptyLike();
  // The same protocol object (and so the same SW model), not a rebuild.
  EXPECT_EQ(sibling.protocol().get(), session.protocol().get());
  ASSERT_NE(SwEstimatorOf(*session.protocol()), nullptr);
  EXPECT_EQ(SwEstimatorOf(*sibling.protocol()).get(),
            SwEstimatorOf(*session.protocol()).get());
  EXPECT_EQ(sibling.spec().method, spec.method);
  // Fresh state: nothing of the parent's aggregate, tenants or window.
  EXPECT_EQ(sibling.num_reports(), 0u);
  EXPECT_TRUE(sibling.TenantIds().empty());
  EXPECT_EQ(sibling.EncodeSketches().ValueOrDie(),
            empty.EncodeSketches().ValueOrDie());
  EXPECT_NE(sibling.ledger().get(), session.ledger().get());
  EXPECT_NE(sibling.sequence_tracker(), session.sequence_tracker());

  // Its own dedup window: the parent's claimed (epoch, seq) absorbs here.
  ASSERT_TRUE(session.sequence_tracker()->Claimed(5, 1));
  EXPECT_FALSE(sibling.sequence_tracker()->Claimed(5, 1));
  ASSERT_TRUE(sibling.HandleFrame(frames[0]).ok());
  EXPECT_EQ(sibling.num_reports(), 100u);
  // Its own ledger: the parent's tenant-1 budget is spent, not this one's.
  EXPECT_EQ(session.HandleFrame(frames[1]).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(sibling.HandleFrame(frames[1]).ok());
  EXPECT_EQ(sibling.ledger()->spent_reports(1), 200u);
  EXPECT_EQ(session.ledger()->spent_reports(1), 100u);
  // Its own accumulators: the parent did not move.
  EXPECT_EQ(session.num_reports(), 100u);
  EXPECT_EQ(sibling.num_reports(), 200u);

  // A non-SW protocol has no SW model to share.
  const auto cfo_spec =
      wire::ParseMethodSpec("cfo-grr-16", 1.0, 32).ValueOrDie();
  const auto cfo = serve::CollectorSession::Make(cfo_spec).ValueOrDie();
  EXPECT_EQ(SwEstimatorOf(*cfo.protocol()), nullptr);
  EXPECT_EQ(cfo.MakeEmptyLike().protocol().get(), cfo.protocol().get());
}

TEST(CollectorSessionTest, SiblingSessionsFoldBackToTheSingleSessionBytes) {
  const auto spec = wire::ParseMethodSpec("sw-ems", 1.0, 32).ValueOrDie();
  for (const uint32_t tenants : {0u, 3u}) {
    SCOPED_TRACE(testing::Message() << "tenants=" << tenants);
    auto reference = serve::CollectorSession::Make(spec).ValueOrDie();
    const std::vector<std::string> frames =
        SiblingFrames(spec, *reference.protocol(), 12, 150, tenants);
    for (const std::string& frame : frames) {
      ASSERT_TRUE(reference.HandleFrame(frame).ok());
    }

    // The server's shape: a main session claims every frame, siblings
    // sharing its ledger (never its window) absorb them, and the main
    // session advances its window and folds the siblings back.
    auto main = serve::CollectorSession::Make(spec).ValueOrDie();
    std::vector<serve::CollectorSession> siblings;
    for (size_t s = 0; s < 3; ++s) {
      siblings.push_back(main.MakeEmptyLike());
      siblings.back().set_ledger(main.ledger());
    }
    for (size_t i = 0; i < frames.size(); ++i) {
      const std::span<const uint8_t> bytes = wire::FrameBytes(frames[i]);
      wire::FrameInfo info;
      ASSERT_TRUE(main.ClaimFrame(bytes, &info).ValueOrDie());
      ASSERT_TRUE(
          siblings[(i * 7) % siblings.size()].AbsorbFrame(info, bytes).ok());
    }
    main.sequence_tracker()->Advance();
    for (const std::string& frame : frames) {
      wire::FrameInfo info;
      EXPECT_FALSE(main.ClaimFrame(wire::FrameBytes(frame), &info)
                       .ValueOrDie())
          << "a re-send must dedup on the main session's window";
    }
    for (const serve::CollectorSession& sibling : siblings) {
      ASSERT_TRUE(main.AbsorbSession(sibling).ok());
    }
    EXPECT_EQ(main.num_reports(), reference.num_reports());
    EXPECT_EQ(main.EncodeSketches().ValueOrDie(),
              reference.EncodeSketches().ValueOrDie());
    EXPECT_EQ(main.EncodeSketch().ValueOrDie(),
              reference.EncodeSketch().ValueOrDie());
  }
}

TEST(CollectorSessionTest, SiblingCheckpointReplaysToIdenticalBytes) {
  const auto spec = wire::ParseMethodSpec("sw-ems", 1.0, 32).ValueOrDie();
  for (const uint32_t tenants : {0u, 2u}) {
    SCOPED_TRACE(testing::Message() << "tenants=" << tenants);
    auto main = serve::CollectorSession::Make(spec).ValueOrDie();
    const std::vector<std::string> frames =
        SiblingFrames(spec, *main.protocol(), 9, 120, tenants);
    auto reference = serve::CollectorSession::Make(spec).ValueOrDie();
    for (const std::string& frame : frames) {
      ASSERT_TRUE(reference.HandleFrame(frame).ok());
    }

    // Mid-serve state: some frames on the main session, the rest on two
    // siblings, none folded yet.
    std::vector<serve::CollectorSession> siblings;
    siblings.push_back(main.MakeEmptyLike());
    siblings.push_back(main.MakeEmptyLike());
    for (size_t i = 0; i < frames.size(); ++i) {
      serve::CollectorSession& target =
          i % 3 == 0 ? main : siblings[i % 3 - 1];
      ASSERT_TRUE(target.HandleFrame(frames[i]).ok());
    }
    // The checkpoint path: gather into a scratch sibling, leaving the
    // serving sessions untouched.
    serve::CollectorSession scratch = main.MakeEmptyLike();
    ASSERT_TRUE(scratch.AbsorbSession(main).ok());
    for (const serve::CollectorSession& sibling : siblings) {
      ASSERT_TRUE(scratch.AbsorbSession(sibling).ok());
    }
    const std::vector<std::string> checkpoint =
        scratch.EncodeSketches().ValueOrDie();
    EXPECT_EQ(checkpoint, reference.EncodeSketches().ValueOrDie());
    EXPECT_LT(main.num_reports(), reference.num_reports());

    // Replay into a freshly built session and into another sibling.
    auto restored = serve::CollectorSession::Make(spec).ValueOrDie();
    ASSERT_TRUE(restored.ResetToSketches(checkpoint).ok());
    EXPECT_EQ(restored.EncodeSketches().ValueOrDie(), checkpoint);
    serve::CollectorSession restored_sibling = main.MakeEmptyLike();
    ASSERT_TRUE(restored_sibling.ResetToSketches(checkpoint).ok());
    EXPECT_EQ(restored_sibling.EncodeSketches().ValueOrDie(), checkpoint);
    EXPECT_EQ(restored_sibling.num_reports(), reference.num_reports());
  }
}

// ---------------------------------------------------------------------------
// SequenceTracker: a failed absorb releases its claim before the window
// advances, so the window never folds a failed frame into a floor.

TEST(SequenceTrackerTest, ExportNeverPersistsAReleasedClaimAsAbsorbed) {
  serve::SequenceTracker tracker;
  for (uint64_t seq = 1; seq <= 4; ++seq) {
    ASSERT_TRUE(tracker.Claim(9, seq));
  }
  // Seq 2's absorb failed: released, then the window advances.
  tracker.Release(9, 2);
  tracker.Advance();
  EXPECT_FALSE(tracker.Claimed(9, 2));
  // A checkpoint cut before the retry carries the hole: the floor stops
  // below it and the absorbed seqs above it stay sparse.
  const std::vector<serve::WalSeqEntry> entries = tracker.Export();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].epoch, 9u);
  EXPECT_EQ(entries[0].floor, 1u);
  EXPECT_EQ(entries[0].sparse, (std::vector<uint64_t>{3, 4}));
  // The retry is accepted exactly once, here and in a tracker restored
  // from that checkpoint; the absorbed neighbors stay duplicates.
  serve::SequenceTracker restored;
  restored.Restore(entries);
  for (serve::SequenceTracker* t : {&tracker, &restored}) {
    EXPECT_TRUE(t->Claim(9, 2));
    EXPECT_FALSE(t->Claim(9, 2));
    EXPECT_FALSE(t->Claim(9, 1));
    EXPECT_FALSE(t->Claim(9, 3));
    EXPECT_FALSE(t->Claim(9, 4));
    t->Advance();
    EXPECT_EQ(t->Export().at(0).floor, 4u);
    EXPECT_TRUE(t->Export().at(0).sparse.empty());
  }
}

}  // namespace
}  // namespace numdist
