// Write-ahead log guarantees (serve/wal.h): replaying ANY truncation of a
// log yields the state of an intact record prefix with a typed torn-tail
// error (never a crash, never garbage state), checkpoint compaction is
// state-preserving, replay is deterministic, and tenant routing survives
// the log round trip. The cross-process SIGKILL variant of these claims
// lives in tests/wal_process_test.cc. The record checksum runs on the
// kernel ladder, so the log's bytes and its replay must not depend on the
// dispatched tier.
#include "serve/wal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "data/datasets.h"
#include "kernels/kernels.h"
#include "protocol/sharded.h"
#include "serve/collector.h"
#include "wire/wire.h"

namespace numdist {
namespace {

wire::MethodSpec TestSpec() {
  return wire::ParseMethodSpec("sw-ems", 1.0, 16).ValueOrDie();
}

// One seeded report frame per shard, optionally tenant-tagged.
std::vector<std::string> MakeReportFrames(const wire::MethodSpec& spec,
                                          size_t shards, size_t shard_size,
                                          uint64_t seed,
                                          uint32_t tenant = wire::kDefaultTenant) {
  auto protocol = wire::MakeProtocolForSpec(spec).ValueOrDie();
  const std::vector<double> values = GoldenRatioValues(shards * shard_size);
  std::vector<std::string> frames;
  for (size_t i = 0; i < shards; ++i) {
    Rng rng(ShardSeed(seed, i));
    auto chunk = protocol
                     ->EncodePerturbBatch(std::span<const double>(values)
                                              .subspan(i * shard_size,
                                                       shard_size),
                                          rng)
                     .ValueOrDie();
    std::string frame;
    const Status st =
        wire::EncodeReportFrame(spec, tenant, *protocol, *chunk, &frame);
    EXPECT_TRUE(st.ok()) << st.ToString();
    frames.push_back(frame);
  }
  return frames;
}

bool SameState(const AccumulatorState& a, const AccumulatorState& b) {
  if (a.num_reports != b.num_reports) return false;
  if (a.tables.size() != b.tables.size()) return false;
  for (size_t t = 0; t < a.tables.size(); ++t) {
    if (a.tables[t].n != b.tables[t].n) return false;
    if (a.tables[t].counts != b.tables[t].counts) return false;
  }
  return true;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// A session and its log, split the way net::CollectorServer splits them:
// the session replays the log (CollectorSession::OpenWal), the owner
// appends accepted frames and compacts.
struct LoggedSession {
  serve::CollectorSession session;
  std::optional<serve::WalLog> log;  // empty when the replay failed
  serve::WalReplayStats stats;
};

// Replays the log at `path` into a fresh session and keeps it open.
LoggedSession OpenLogged(const std::string& path,
                         const serve::WalOptions& options = {}) {
  LoggedSession logged{serve::CollectorSession::Make(TestSpec()).ValueOrDie(),
                       std::nullopt, {}};
  Result<serve::WalLog> log = logged.session.OpenWal(path, options);
  EXPECT_TRUE(log.ok()) << log.status().ToString();
  if (log.ok()) {
    logged.stats = log->recovery();
    logged.log.emplace(std::move(log).ValueOrDie());
  }
  return logged;
}

// Whether the session's dedup window holds `frame`'s (epoch, seq).
bool Claimed(serve::CollectorSession* session, const std::string& frame) {
  const Result<wire::FrameInfo> info = wire::PeekFrame(frame);
  return info.ok() && info->has_seq &&
         session->sequence_tracker()->Claimed(info->seq.epoch, info->seq.seq);
}

// Absorbs one frame and logs it once accepted (duplicates never reach the
// log), as the server's batch loop does. `*absorbed` (optional) is false
// for a duplicate.
Status Ingest(LoggedSession* logged, const std::string& frame,
              bool* absorbed = nullptr) {
  const bool duplicate = Claimed(&logged->session, frame);
  NUMDIST_RETURN_NOT_OK(logged->session.HandleFrame(frame));
  if (absorbed != nullptr) *absorbed = !duplicate;
  return duplicate ? Status::OK() : logged->log->AppendFrame(frame);
}

// Compacts the log to the session's state plus its dedup window.
Status Compact(LoggedSession* logged) {
  NUMDIST_ASSIGN_OR_RETURN(const std::vector<std::string> sketches,
                           logged->session.EncodeSketches());
  return logged->log->Compact(sketches,
                              logged->session.sequence_tracker()->Export());
}

// Builds a frame-record-only log (no checkpoints) holding `frames`.
void BuildLog(const std::string& path, const std::vector<std::string>& frames) {
  std::remove(path.c_str());
  LoggedSession logged = OpenLogged(path);
  for (const std::string& frame : frames) {
    const Status st = Ingest(&logged, frame);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
}

// The headline sweep: truncate the log at EVERY byte length and replay.
// Each truncation must recover the state of some intact record prefix,
// report the cut as a typed torn-tail error (except on record
// boundaries), and never hard-fail or crash.
TEST(WalTest, EveryByteTruncationYieldsAPrefixState) {
  const wire::MethodSpec spec = TestSpec();
  const std::vector<std::string> frames =
      MakeReportFrames(spec, /*shards=*/5, /*shard_size=*/20, /*seed=*/11);

  const std::string log_path = TempPath("wal_sweep.wal");
  BuildLog(log_path, frames);
  const std::string log_bytes = ReadFileBytes(log_path);
  ASSERT_GT(log_bytes.size(), serve::kWalHeaderBytes);

  // Expected state after each intact frame prefix.
  std::vector<AccumulatorState> prefix_states;
  {
    serve::CollectorSession acc =
        serve::CollectorSession::Make(spec).ValueOrDie();
    prefix_states.push_back(acc.ExportState());
    for (const std::string& frame : frames) {
      ASSERT_TRUE(acc.HandleFrame(frame).ok());
      prefix_states.push_back(acc.ExportState());
    }
  }

  const std::string cut_path = TempPath("wal_sweep_cut.wal");
  std::vector<bool> prefix_reached(frames.size() + 1, false);
  for (size_t len = 0; len <= log_bytes.size(); ++len) {
    WriteFileBytes(cut_path, log_bytes.substr(0, len));
    LoggedSession replayed = OpenLogged(cut_path);
    ASSERT_LE(replayed.stats.frames, frames.size()) << "cut at " << len;
    ASSERT_EQ(replayed.stats.checkpoints, 0u) << "cut at " << len;
    prefix_reached[replayed.stats.frames] = true;
    // The recovered state is exactly the intact prefix's state.
    ASSERT_TRUE(SameState(replayed.session.ExportState(),
                          prefix_states[replayed.stats.frames]))
        << "cut at " << len << " replayed " << replayed.stats.frames;
    if (!replayed.stats.tail.ok()) {
      EXPECT_EQ(replayed.stats.tail.code(), StatusCode::kOutOfRange)
          << "cut at " << len << ": " << replayed.stats.tail.ToString();
    } else {
      // An OK tail means the cut landed exactly on a record boundary.
      EXPECT_EQ(replayed.stats.clean_bytes, len) << "cut at " << len;
    }
    ASSERT_LE(replayed.stats.clean_bytes, len) << "cut at " << len;
  }
  // The sweep exercised every prefix length, 0 through all frames.
  for (size_t k = 0; k <= frames.size(); ++k) {
    EXPECT_TRUE(prefix_reached[k]) << "no truncation replayed to prefix " << k;
  }
  std::remove(log_path.c_str());
  std::remove(cut_path.c_str());
}

// After recovery from a torn log, the writer truncates the tail and new
// appends extend the clean prefix — a second replay sees old + new frames.
TEST(WalTest, TornTailIsTruncatedBeforeNewAppends) {
  const wire::MethodSpec spec = TestSpec();
  const std::vector<std::string> frames =
      MakeReportFrames(spec, /*shards=*/4, /*shard_size=*/20, /*seed=*/5);

  const std::string path = TempPath("wal_torn_append.wal");
  BuildLog(path, {frames[0], frames[1], frames[2]});
  std::string bytes = ReadFileBytes(path);
  // Cut inside the final record.
  WriteFileBytes(path, bytes.substr(0, bytes.size() - 3));

  LoggedSession replayed = OpenLogged(path);
  EXPECT_EQ(replayed.stats.frames, 2u);
  EXPECT_EQ(replayed.stats.tail.code(), StatusCode::kOutOfRange);
  ASSERT_TRUE(Ingest(&replayed, frames[3]).ok());

  LoggedSession again = OpenLogged(path);
  EXPECT_EQ(again.stats.frames, 3u);
  EXPECT_TRUE(again.stats.tail.ok()) << again.stats.tail.ToString();
  serve::CollectorSession expect =
      serve::CollectorSession::Make(spec).ValueOrDie();
  ASSERT_TRUE(expect.HandleFrame(frames[0]).ok());
  ASSERT_TRUE(expect.HandleFrame(frames[1]).ok());
  ASSERT_TRUE(expect.HandleFrame(frames[3]).ok());
  EXPECT_TRUE(SameState(again.session.ExportState(), expect.ExportState()));
  std::remove(path.c_str());
}

// A flipped body byte fails the CRC: typed torn tail, prefix state kept.
TEST(WalTest, CorruptRecordIsATypedTornTail) {
  const std::vector<std::string> frames =
      MakeReportFrames(TestSpec(), /*shards=*/3, /*shard_size=*/20, /*seed=*/2);
  const std::string path = TempPath("wal_crc.wal");
  BuildLog(path, frames);
  std::string bytes = ReadFileBytes(path);
  bytes[bytes.size() - 1] ^= 0x40;  // inside the last record's body
  WriteFileBytes(path, bytes);

  LoggedSession replayed = OpenLogged(path);
  EXPECT_EQ(replayed.stats.frames, 2u);
  EXPECT_EQ(replayed.stats.tail.code(), StatusCode::kOutOfRange);
  EXPECT_NE(replayed.stats.tail.message().find("torn tail"),
            std::string::npos)
      << replayed.stats.tail.ToString();
  std::remove(path.c_str());
}

// A zero-filled tail (preallocated blocks after a crash) cannot pass as a
// record: length 0 is classified as torn, even though CRC(empty) == 0.
TEST(WalTest, ZeroFilledTailIsATypedTornTail) {
  const std::vector<std::string> frames =
      MakeReportFrames(TestSpec(), /*shards=*/2, /*shard_size=*/20, /*seed=*/3);
  const std::string path = TempPath("wal_zeros.wal");
  BuildLog(path, frames);
  std::string bytes = ReadFileBytes(path);
  const uint64_t clean = bytes.size();
  bytes.append(64, '\0');
  WriteFileBytes(path, bytes);

  LoggedSession replayed = OpenLogged(path);
  EXPECT_EQ(replayed.stats.frames, 2u);
  EXPECT_EQ(replayed.stats.clean_bytes, clean);
  EXPECT_EQ(replayed.stats.tail.code(), StatusCode::kOutOfRange);
  std::remove(path.c_str());
}

// Corruption a torn write cannot explain is a HARD error, not a tail.
TEST(WalTest, BadMagicAndVersionSkewAreHardErrors) {
  const std::string path = TempPath("wal_magic.wal");
  WriteFileBytes(path, std::string("XXXX\x01\x00\x00\x00", 8));
  serve::WalConsumer consumer;
  auto bad_magic = serve::ReplayWal(path, consumer);
  ASSERT_FALSE(bad_magic.ok());
  EXPECT_EQ(bad_magic.status().code(), StatusCode::kInvalidArgument);

  WriteFileBytes(path, std::string("NDWL\x09\x00\x00\x00", 8));
  auto bad_version = serve::ReplayWal(path, consumer);
  ASSERT_FALSE(bad_version.ok());
  EXPECT_EQ(bad_version.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

// A missing file is an empty log, not an error (first boot).
TEST(WalTest, MissingFileIsAnEmptyLog) {
  const std::string path = TempPath("wal_missing_never_created.wal");
  std::remove(path.c_str());
  serve::WalConsumer consumer;
  auto stats = serve::ReplayWal(path, consumer);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().frames, 0u);
  EXPECT_EQ(stats.value().clean_bytes, 0u);
  EXPECT_TRUE(stats.value().tail.ok());
}

// Compaction (checkpoint + truncate) replays to the identical state, also
// when repeated mid-stream.
TEST(WalTest, CheckpointCompactionPreservesState) {
  const wire::MethodSpec spec = TestSpec();
  const std::vector<std::string> frames =
      MakeReportFrames(spec, /*shards=*/6, /*shard_size=*/20, /*seed=*/17);
  const std::string plain_path = TempPath("wal_plain.wal");
  const std::string compact_path = TempPath("wal_compact.wal");
  std::remove(plain_path.c_str());
  std::remove(compact_path.c_str());

  BuildLog(plain_path, frames);

  // Same frames through a log compacted after every 2 frames.
  LoggedSession compacting = OpenLogged(compact_path);
  for (size_t i = 0; i < frames.size(); ++i) {
    ASSERT_TRUE(Ingest(&compacting, frames[i]).ok());
    if (i % 2 == 1) {
      ASSERT_TRUE(Compact(&compacting).ok());
    }
  }

  LoggedSession from_plain = OpenLogged(plain_path);
  LoggedSession from_compact = OpenLogged(compact_path);
  EXPECT_EQ(from_plain.stats.frames, frames.size());
  EXPECT_GE(from_compact.stats.checkpoints, 1u);
  EXPECT_LT(from_compact.stats.frames, frames.size());
  EXPECT_TRUE(SameState(from_plain.session.ExportState(),
                        from_compact.session.ExportState()));
  // And both equal the live sessions' state and sketch bytes.
  EXPECT_TRUE(SameState(from_compact.session.ExportState(),
                        compacting.session.ExportState()));
  EXPECT_EQ(from_plain.session.EncodeSketch().ValueOrDie(),
            compacting.session.EncodeSketch().ValueOrDie());
  // The compacted log is the smaller one (6 frame records vs a
  // checkpoint plus at most 1 trailing frame).
  EXPECT_LT(ReadFileBytes(compact_path).size(),
            ReadFileBytes(plain_path).size() + frames.back().size());
  std::remove(plain_path.c_str());
  std::remove(compact_path.c_str());
}

// Replay is deterministic: for several seeds, two independent replays of
// the same log produce byte-identical sketches.
TEST(WalTest, ReplayIsDeterministicAcrossSeeds) {
  const wire::MethodSpec spec = TestSpec();
  for (const uint64_t seed : {1u, 2u, 3u}) {
    const std::vector<std::string> frames =
        MakeReportFrames(spec, /*shards=*/4, /*shard_size=*/25, seed);
    const std::string path =
        TempPath("wal_seed_" + std::to_string(seed) + ".wal");
    BuildLog(path, frames);

    LoggedSession a = OpenLogged(path);
    LoggedSession b = OpenLogged(path);
    EXPECT_EQ(a.stats.frames, frames.size()) << "seed " << seed;
    EXPECT_EQ(a.stats.frames, b.stats.frames) << "seed " << seed;
    EXPECT_EQ(a.stats.clean_bytes, b.stats.clean_bytes) << "seed " << seed;
    EXPECT_TRUE(SameState(a.session.ExportState(), b.session.ExportState()))
        << "seed " << seed;
    EXPECT_EQ(a.session.EncodeSketch().ValueOrDie(),
              b.session.EncodeSketch().ValueOrDie())
        << "seed " << seed;
    std::remove(path.c_str());
  }
}

// Tenant routing survives the log: tagged frames replay into the same
// per-tenant accumulators, through both frame records and checkpoints.
TEST(WalTest, TenantRoutingSurvivesReplayAndCompaction) {
  const wire::MethodSpec spec = TestSpec();
  const std::vector<std::string> def_frames =
      MakeReportFrames(spec, /*shards=*/2, /*shard_size=*/20, /*seed=*/8);
  const std::vector<std::string> t5_frames = MakeReportFrames(
      spec, /*shards=*/2, /*shard_size=*/20, /*seed=*/9, /*tenant=*/5);
  const std::vector<std::string> t9_frames = MakeReportFrames(
      spec, /*shards=*/1, /*shard_size=*/20, /*seed=*/10, /*tenant=*/9);

  const std::string path = TempPath("wal_tenants.wal");
  std::remove(path.c_str());
  LoggedSession live = OpenLogged(path);
  for (const auto* frames : {&def_frames, &t5_frames, &t9_frames}) {
    for (const std::string& frame : *frames) {
      ASSERT_TRUE(Ingest(&live, frame).ok());
    }
  }

  LoggedSession replayed = OpenLogged(path);
  EXPECT_EQ(replayed.session.TenantIds(), (std::vector<uint32_t>{5, 9}));
  for (const uint32_t tenant : {wire::kDefaultTenant, 5u, 9u}) {
    EXPECT_TRUE(SameState(
        replayed.session.ExportTenantState(tenant).ValueOrDie(),
        live.session.ExportTenantState(tenant).ValueOrDie()))
        << "tenant " << tenant;
  }
  EXPECT_EQ(replayed.session.EncodeSketches().ValueOrDie(),
            live.session.EncodeSketches().ValueOrDie());

  // Compact (checkpoint currency = per-tenant sketches) and replay again.
  ASSERT_TRUE(Compact(&replayed).ok());
  LoggedSession after_compact = OpenLogged(path);
  EXPECT_EQ(after_compact.stats.checkpoints, 1u);
  EXPECT_EQ(after_compact.stats.frames, 0u);
  EXPECT_EQ(after_compact.session.TenantIds(),
            (std::vector<uint32_t>{5, 9}));
  EXPECT_EQ(after_compact.session.EncodeSketches().ValueOrDie(),
            live.session.EncodeSketches().ValueOrDie());
  std::remove(path.c_str());
}

// Budget accounting is restored from the log: a tenant that exhausted its
// budget before the crash is still over budget after recovery.
TEST(WalTest, BudgetsAreRestoredByReplay) {
  const wire::MethodSpec spec = TestSpec();
  const std::vector<std::string> frames = MakeReportFrames(
      spec, /*shards=*/2, /*shard_size=*/20, /*seed=*/4, /*tenant=*/3);
  const std::string path = TempPath("wal_budget.wal");
  std::remove(path.c_str());

  serve::CollectorSession live =
      serve::CollectorSession::Make(spec).ValueOrDie();
  live.SetTenantBudget(3, {.max_reports = 40});
  serve::WalLog log = live.OpenWal(path).ValueOrDie();
  for (const std::string& frame : frames) {
    ASSERT_TRUE(live.HandleFrame(frame).ok());
    ASSERT_TRUE(log.AppendFrame(frame).ok());
  }

  serve::CollectorSession restarted =
      serve::CollectorSession::Make(spec).ValueOrDie();
  restarted.SetTenantBudget(3, {.max_reports = 40});
  ASSERT_TRUE(restarted.OpenWal(path).ok());
  EXPECT_EQ(restarted.ledger()->spent_reports(3), 40u);
  const std::vector<std::string> more = MakeReportFrames(
      spec, /*shards=*/1, /*shard_size=*/20, /*seed=*/6, /*tenant=*/3);
  const Status over = restarted.HandleFrame(more[0]);
  EXPECT_EQ(over.code(), StatusCode::kFailedPrecondition)
      << over.ToString();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Segmented layout (WalOptions::segment_bytes > 0): rotation, replay
// across a segment directory, the hardened gap / sealed-torn taxonomy,
// compaction GC, and the exactly-once dedup-window checkpoint.

std::vector<std::string> SegmentFiles(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

// A fresh (removed-then-absent) segment-directory path under TempDir.
std::string TempSegDir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Small segments so a handful of report frames forces several rotations
// (a 50-report frame at d = 16 packs into a record of about 70 bytes).
constexpr uint64_t kTestSegmentBytes = 200;

// Builds a segmented frame-only log and returns the live session's state.
AccumulatorState BuildSegmentedLog(const std::string& dir,
                                   const std::vector<std::string>& frames) {
  LoggedSession logged =
      OpenLogged(dir, {.segment_bytes = kTestSegmentBytes});
  for (const std::string& frame : frames) {
    const Status st = Ingest(&logged, frame);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return logged.session.ExportState();
}

TEST(WalSegmentTest, RotationReplaysAcrossAContiguousSegmentRun) {
  const std::string dir = TempSegDir("wal_seg_rotate");
  const std::vector<std::string> frames =
      MakeReportFrames(TestSpec(), /*shards=*/8, /*shard_size=*/50,
                       /*seed=*/21);
  const AccumulatorState live = BuildSegmentedLog(dir, frames);

  // The writer rotated: several contiguous 1-based segments exist.
  const std::vector<std::string> files = SegmentFiles(dir);
  ASSERT_GT(files.size(), 1u) << "no rotation at segment_bytes="
                              << kTestSegmentBytes;
  EXPECT_EQ(files.front(), "wal-00000001.ndwl");
  char expected[32];
  std::snprintf(expected, sizeof(expected), "wal-%08zu.ndwl", files.size());
  EXPECT_EQ(files.back(), expected);

  // Replay walks the whole run and reproduces the exact state.
  const LoggedSession restarted =
      OpenLogged(dir, {.segment_bytes = kTestSegmentBytes});
  ASSERT_TRUE(restarted.log.has_value());
  EXPECT_EQ(restarted.stats.frames, frames.size());
  EXPECT_EQ(restarted.stats.segments, files.size());
  EXPECT_TRUE(restarted.stats.tail.ok()) << restarted.stats.tail.ToString();
  EXPECT_TRUE(SameState(live, restarted.session.ExportState()));
  std::filesystem::remove_all(dir);
}

TEST(WalSegmentTest, NumberingGapIsAHardError) {
  const std::string dir = TempSegDir("wal_seg_gap");
  BuildSegmentedLog(dir, MakeReportFrames(TestSpec(), 8, 50, 22));
  const std::vector<std::string> files = SegmentFiles(dir);
  ASSERT_GT(files.size(), 2u);
  // Unlink a MIDDLE segment: no crash schedule can explain the hole.
  ASSERT_TRUE(std::filesystem::remove(dir + "/" + files[1]));

  serve::CollectorSession restarted =
      serve::CollectorSession::Make(TestSpec()).ValueOrDie();
  const auto log =
      restarted.OpenWal(dir, {.segment_bytes = kTestSegmentBytes});
  ASSERT_FALSE(log.ok());
  EXPECT_EQ(log.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(log.status().message().find("gap"), std::string::npos)
      << log.status().ToString();
  std::filesystem::remove_all(dir);
}

TEST(WalSegmentTest, TornTailTaxonomyIsPerSegment) {
  const std::string dir = TempSegDir("wal_seg_torn");
  const std::vector<std::string> frames =
      MakeReportFrames(TestSpec(), 8, 50, 23);
  BuildSegmentedLog(dir, frames);
  const std::vector<std::string> files = SegmentFiles(dir);
  ASSERT_GT(files.size(), 1u);

  // A cut in the FINAL segment is a crash shape: typed torn tail, the
  // intact prefix's state is kept.
  const std::string final_path = dir + "/" + files.back();
  const std::string final_bytes = ReadFileBytes(final_path);
  ASSERT_GT(final_bytes.size(), serve::kWalHeaderBytes + 3);
  WriteFileBytes(final_path,
                 final_bytes.substr(0, final_bytes.size() - 3));
  {
    const LoggedSession restarted =
        OpenLogged(dir, {.segment_bytes = kTestSegmentBytes});
    ASSERT_TRUE(restarted.log.has_value());
    EXPECT_FALSE(restarted.stats.tail.ok())
        << "a cut final record must be typed";
    EXPECT_LT(restarted.stats.frames, frames.size());
    EXPECT_GT(restarted.stats.frames, 0u);
  }

  // The SAME cut in a sealed (non-final) segment is corruption a crash
  // cannot explain: hard error, no silent prefix state.
  const std::string sealed_path = dir + "/" + files.front();
  const std::string sealed_bytes = ReadFileBytes(sealed_path);
  WriteFileBytes(sealed_path,
                 sealed_bytes.substr(0, sealed_bytes.size() - 3));
  {
    serve::CollectorSession restarted =
        serve::CollectorSession::Make(TestSpec()).ValueOrDie();
    const auto log =
        restarted.OpenWal(dir, {.segment_bytes = kTestSegmentBytes});
    ASSERT_FALSE(log.ok());
    EXPECT_NE(log.status().message().find("sealed"), std::string::npos)
        << log.status().ToString();
  }
  std::filesystem::remove_all(dir);
}

TEST(WalSegmentTest, CompactionCollapsesToOneFreshSegment) {
  const std::string dir = TempSegDir("wal_seg_compact");
  const std::vector<std::string> frames =
      MakeReportFrames(TestSpec(), 8, 50, 24);

  LoggedSession logged =
      OpenLogged(dir, {.segment_bytes = kTestSegmentBytes});
  for (const std::string& frame : frames) {
    ASSERT_TRUE(Ingest(&logged, frame).ok());
  }
  const size_t before = SegmentFiles(dir).size();
  ASSERT_GT(before, 1u);
  ASSERT_TRUE(Compact(&logged).ok());

  // GC left exactly one segment — the fresh checkpoint segment, numbered
  // PAST the sealed run (the numbering never reuses a unlinked slot).
  const std::vector<std::string> files = SegmentFiles(dir);
  ASSERT_EQ(files.size(), 1u);
  char expected[32];
  std::snprintf(expected, sizeof(expected), "wal-%08zu.ndwl", before + 1);
  EXPECT_EQ(files[0], expected);

  // The checkpoint replays to the exact pre-compaction state.
  const LoggedSession restarted =
      OpenLogged(dir, {.segment_bytes = kTestSegmentBytes});
  ASSERT_TRUE(restarted.log.has_value());
  EXPECT_EQ(restarted.stats.frames, 0u);
  EXPECT_EQ(restarted.stats.checkpoints, 1u);
  EXPECT_TRUE(SameState(logged.session.ExportState(),
                        restarted.session.ExportState()));
  std::filesystem::remove_all(dir);
}

// The exactly-once window survives BOTH recovery paths: frame replay
// re-claims each logged (epoch, seq), and compaction persists the window
// as a type-3 record that replay restores.
TEST(WalSegmentTest, DedupWindowSurvivesReplayAndCompaction) {
  const std::string dir = TempSegDir("wal_seg_dedup");
  std::vector<std::string> frames =
      MakeReportFrames(TestSpec(), 4, 50, 25);
  for (size_t i = 0; i < frames.size(); ++i) {
    ASSERT_TRUE(wire::StampSequenceContext(
                    &frames[i], {.epoch = 9, .seq = i + 1})
                    .ok());
  }

  LoggedSession logged =
      OpenLogged(dir, {.segment_bytes = kTestSegmentBytes});
  for (const std::string& frame : frames) {
    bool absorbed = false;
    ASSERT_TRUE(Ingest(&logged, frame, &absorbed).ok());
    EXPECT_TRUE(absorbed);
  }

  // Path 1: crash before any compaction — frame replay re-claims seqs,
  // so a full client retransmission dedups to a no-op.
  {
    LoggedSession restarted =
        OpenLogged(dir, {.segment_bytes = kTestSegmentBytes});
    ASSERT_TRUE(restarted.log.has_value());
    const AccumulatorState recovered = restarted.session.ExportState();
    for (const std::string& frame : frames) {
      EXPECT_TRUE(Claimed(&restarted.session, frame))
          << "replayed seq must be claimed";
      ASSERT_TRUE(restarted.session.HandleFrame(frame).ok());
    }
    EXPECT_TRUE(SameState(recovered, restarted.session.ExportState()));
  }

  // Path 2: compaction replaces the frame records with a checkpoint +
  // type-3 dedup record; the window must survive that representation too.
  ASSERT_TRUE(Compact(&logged).ok());
  {
    LoggedSession restarted =
        OpenLogged(dir, {.segment_bytes = kTestSegmentBytes});
    ASSERT_TRUE(restarted.log.has_value());
    EXPECT_EQ(restarted.stats.seq_checkpoints, 1u);
    const uint64_t recovered = restarted.session.num_reports();
    for (const std::string& frame : frames) {
      EXPECT_TRUE(Claimed(&restarted.session, frame));
      ASSERT_TRUE(restarted.session.HandleFrame(frame).ok());
    }
    EXPECT_EQ(restarted.session.num_reports(), recovered);
    // A genuinely new sequence number still absorbs.
    std::vector<std::string> fresh =
        MakeReportFrames(TestSpec(), 1, 50, 26);
    ASSERT_TRUE(wire::StampSequenceContext(
                    &fresh[0],
                    {.epoch = 9, .seq = frames.size() + 1})
                    .ok());
    EXPECT_FALSE(Claimed(&restarted.session, fresh[0]));
    const uint64_t before = restarted.session.num_reports();
    ASSERT_TRUE(restarted.session.HandleFrame(fresh[0]).ok());
    EXPECT_EQ(restarted.session.num_reports(), before + 50);
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Cross-tier logs: the record CRC is computed by the dispatched kernel tier
// (scalar table or SSE4.2 crc32), and neither the bytes on disk nor what
// replay recovers may depend on which tier wrote or reads the log.

// Restores normal dispatch however a test exits.
struct IsaGuard {
  ~IsaGuard() { kernels::ResetIsaForTest(); }
};

// Forcing avx512 clamps down the ladder to the widest tier the host runs.
constexpr kernels::Isa kBestIsa = kernels::Isa::kAvx512;

TEST(WalSegmentTest, LogBytesAndReplayAreIdenticalAcrossIsas) {
  IsaGuard guard;
  const std::vector<std::string> frames =
      MakeReportFrames(TestSpec(), 8, 50, 27);
  const std::string scalar_dir = TempSegDir("wal_isa_scalar");
  const std::string best_dir = TempSegDir("wal_isa_best");
  std::vector<std::string> expected;
  {
    serve::CollectorSession reference =
        serve::CollectorSession::Make(TestSpec()).ValueOrDie();
    for (const std::string& frame : frames) {
      ASSERT_TRUE(reference.HandleFrame(frame).ok());
    }
    expected = reference.EncodeSketches().ValueOrDie();
  }
  kernels::ForceIsaForTest(kernels::Isa::kScalar);
  BuildSegmentedLog(scalar_dir, frames);
  kernels::ForceIsaForTest(kBestIsa);
  BuildSegmentedLog(best_dir, frames);

  // Same segment run, byte for byte.
  const std::vector<std::string> files = SegmentFiles(scalar_dir);
  ASSERT_GT(files.size(), 1u);
  ASSERT_EQ(files, SegmentFiles(best_dir));
  for (const std::string& name : files) {
    EXPECT_EQ(ReadFileBytes(scalar_dir + "/" + name),
              ReadFileBytes(best_dir + "/" + name))
        << name << " differs between scalar and "
        << kernels::IsaName(kernels::ActiveIsa());
  }

  // Each log replays under the OTHER tier to the reference sketches.
  const std::pair<std::string, kernels::Isa> replays[] = {
      {scalar_dir, kBestIsa}, {best_dir, kernels::Isa::kScalar}};
  for (const auto& [dir, isa] : replays) {
    kernels::ForceIsaForTest(isa);
    const LoggedSession restarted =
        OpenLogged(dir, {.segment_bytes = kTestSegmentBytes});
    ASSERT_TRUE(restarted.log.has_value()) << dir;
    EXPECT_EQ(restarted.stats.frames, frames.size()) << dir;
    EXPECT_TRUE(restarted.stats.tail.ok()) << restarted.stats.tail.ToString();
    EXPECT_EQ(restarted.session.EncodeSketches().ValueOrDie(), expected)
        << dir << " replayed under " << kernels::IsaName(isa);
  }
  std::filesystem::remove_all(scalar_dir);
  std::filesystem::remove_all(best_dir);
}

// Known answer for the on-disk frame record, independent of the
// writer/reader pair: the writer gather-writes a 9-byte head in front of
// the caller's frame, and the file must equal a log built by hand from the
// format spec — header, then per frame u32 length, u32 CRC-32C of the
// body, body = type byte 1 followed by the frame — with each body
// concatenated into one string before it is checksummed.
TEST(WalTest, FrameRecordsMatchAHandBuiltLogAtEveryIsa) {
  IsaGuard guard;
  std::vector<std::string> frames;
  for (const size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{32768}}) {
    std::string frame(len, '\0');
    for (size_t i = 0; i < len; ++i) {
      frame[i] = static_cast<char>((i * 131 + len) & 0xFF);
    }
    frames.push_back(std::move(frame));
  }
  const auto put_u32 = [](uint32_t v, std::string* out) {
    for (int shift = 0; shift < 32; shift += 8) {
      out->push_back(static_cast<char>((v >> shift) & 0xFF));
    }
  };
  std::string expected("NDWL\x02\x00\x00\x00", 8);
  for (const std::string& frame : frames) {
    const std::string body = std::string(1, '\x01') + frame;
    put_u32(static_cast<uint32_t>(body.size()), &expected);
    put_u32(Crc32c(body), &expected);
    expected += body;
  }

  for (const kernels::Isa isa : {kernels::Isa::kScalar, kBestIsa}) {
    kernels::ForceIsaForTest(isa);
    const std::string path = TempPath(std::string("wal_known_answer_") +
                                      kernels::IsaName(isa) + ".ndwl");
    std::remove(path.c_str());
    {
      serve::WalLog log = serve::WalLog::Open(path, {}, {}).ValueOrDie();
      for (const std::string& frame : frames) {
        const Status st = log.AppendFrame(frame);
        ASSERT_TRUE(st.ok()) << st.ToString();
      }
    }
    EXPECT_EQ(ReadFileBytes(path), expected)
        << "written under " << kernels::IsaName(kernels::ActiveIsa());
    std::remove(path.c_str());
  }
}

TEST(WalSegmentTest, CrcMismatchIsATornTailAtEveryIsa) {
  IsaGuard guard;
  const std::vector<std::string> frames =
      MakeReportFrames(TestSpec(), 8, 50, 28);
  const std::string written = TempSegDir("wal_isa_crc");
  kernels::ForceIsaForTest(kernels::Isa::kScalar);
  BuildSegmentedLog(written, frames);
  const std::vector<std::string> files = SegmentFiles(written);
  ASSERT_GT(files.size(), 1u);

  for (const kernels::Isa isa :
       {kernels::Isa::kScalar, kernels::Isa::kAvx2, kernels::Isa::kAvx512}) {
    // A fresh copy per tier: replay truncates the torn tail it finds.
    const std::string dir =
        TempSegDir(std::string("wal_isa_crc_") + kernels::IsaName(isa));
    std::filesystem::copy(written, dir);
    const std::string final_path = dir + "/" + files.back();
    std::string bytes = ReadFileBytes(final_path);
    ASSERT_GT(bytes.size(), serve::kWalHeaderBytes);
    bytes[bytes.size() - 1] ^= 0x40;  // inside the last record's body
    WriteFileBytes(final_path, bytes);

    kernels::ForceIsaForTest(isa);
    const LoggedSession restarted =
        OpenLogged(dir, {.segment_bytes = kTestSegmentBytes});
    ASSERT_TRUE(restarted.log.has_value());
    EXPECT_EQ(restarted.stats.frames, frames.size() - 1)
        << kernels::IsaName(isa);
    EXPECT_EQ(restarted.stats.tail.code(), StatusCode::kOutOfRange)
        << kernels::IsaName(isa);
    EXPECT_NE(restarted.stats.tail.message().find("record CRC mismatch"),
              std::string::npos)
        << kernels::IsaName(isa) << ": " << restarted.stats.tail.ToString();
    std::filesystem::remove_all(dir);
  }
  std::filesystem::remove_all(written);
}

}  // namespace
}  // namespace numdist
