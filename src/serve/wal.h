// Write-ahead snapshot log: the collector's crash-recovery substrate.
//
// A collector with a WAL attached appends every ACCEPTED report/sketch
// frame to an append-only log before acknowledging it, and periodically
// compacts the log down to a checkpoint record holding its per-tenant
// sketch frames. A collector killed at ANY byte offset — SIGKILL
// mid-write included — replays the log's clean prefix on restart and
// resumes with the exact pre-crash AccumulatorState: frames are absorbed
// in log order and accumulator arithmetic is exact integers, so the
// restarted aggregate is byte-identical to an uninterrupted run over the
// same frames (tests/wal_process_test.cc proves this across real
// processes).
//
// File layout (all integers little-endian; docs/WIRE_FORMAT.md has the
// byte-level spec):
//
//   header   u32 magic "NDWL", u16 version (1), u16 reserved (0)
//   record   u32 body length, u32 CRC-32C of body, body
//   body     u8 record type, payload
//     type 1 (frame)       payload = one wire frame (report or sketch)
//     type 2 (checkpoint)  payload = u32 sketch count, then per sketch a
//                          u32 length + that many bytes (one wire sketch
//                          frame per tenant; replay RESETS to this state)
//     type 3 (seq ckpt)    payload = the collector's exactly-once dedup
//                          window (u32 entry count, then per entry a u64
//                          epoch, u64 floor, u32 sparse count, and that
//                          many u64 sequence numbers; replay RESETS the
//                          window to this state)
//
// Segmented mode (WalOptions::segment_bytes > 0): the log is a DIRECTORY
// of size-bounded segment files named wal-00000001.ndwl, wal-00000002.ndwl,
// ... — each an NDWL file as above. The writer seals the active segment
// once it reaches segment_bytes and opens the next; compaction writes the
// checkpoint into a fresh segment, then garbage-collects all older
// segments oldest-first, so a crash at any point leaves a contiguous
// segment suffix. Replay walks segments in ascending order; the torn-tail
// taxonomy applies to the FINAL segment only — a torn record in a sealed
// (non-final) segment is corruption a crash cannot explain, and a gap in
// the segment numbering is a hard error.
//
// Failure model: the log tolerates truncation and bit rot at its tail —
// a record cut short or failing its CRC ends replay with a typed error
// in WalReplayStats::tail, the intact prefix's state is kept, and the
// writer truncates the torn tail before appending (so a crashed write is
// discarded, never replayed as garbage). Corruption that a torn write
// cannot explain (bad file magic, a valid-CRC record with an unknown
// type or malformed checkpoint payload) is a hard replay error instead.
// Without sync_each_record the log survives process death (page cache);
// power-loss durability needs sync_each_record = true.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace numdist::serve {

/// First 4 bytes of every WAL file: "NDWL" on disk.
inline constexpr uint32_t kWalMagic = 0x4C57444E;
/// On-disk format version. Frame records embed wire frames verbatim, so a
/// wire-format version bump bumps this too: version 2 logs hold wire
/// version 2 frames. Replay accepts exactly this version.
inline constexpr uint16_t kWalVersion = 2;
/// Bytes of the file header preceding the first record.
inline constexpr uint64_t kWalHeaderBytes = 8;
/// Per-record body ceiling: a frame record holds at most one
/// kMaxFrameBytes frame, a checkpoint at most a handful of sketches.
/// A larger claimed length is classified as a torn/corrupt record.
inline constexpr uint64_t kMaxWalRecordBytes = 256u << 20;

/// Record discriminator (first body byte). Values are part of the on-disk
/// format: never renumber, only append.
enum class WalRecordType : uint8_t {
  kFrame = 1,       ///< One accepted wire frame, verbatim.
  kCheckpoint = 2,  ///< Full-state snapshot: replay resets, then imports.
  kSeqCheckpoint = 3,  ///< Dedup-window snapshot: replay resets the window.
};

struct WalOptions {
  /// Compact the log (checkpoint + truncate) after this many appended
  /// frame records (0 = only compact when the owner asks, e.g. at drain).
  uint64_t checkpoint_every_frames = 0;
  /// fsync after every record (power-loss durability). Off by default:
  /// surviving process death needs no fsync, only the page cache.
  bool sync_each_record = false;
  /// Segmented mode: > 0 makes the WAL path a DIRECTORY of segment files,
  /// each sealed once it reaches this many bytes (see the header comment).
  /// 0 keeps the original single-file layout.
  uint64_t segment_bytes = 0;
};

/// One client epoch's exactly-once dedup state as checkpointed in a
/// type-3 record: every sequence number <= `floor` has been absorbed,
/// plus the out-of-order `sparse` set above the floor.
struct WalSeqEntry {
  uint64_t epoch = 0;
  uint64_t floor = 0;
  std::vector<uint64_t> sparse;
};

/// What a replay pass found. `tail` is OK when the log ends exactly on a
/// record boundary; otherwise it is the typed torn-tail error (truncation
/// or CRC mismatch) and `clean_bytes` is where the intact prefix ends —
/// the offset WalWriter::Open truncates to before appending.
struct WalReplayStats {
  uint64_t frames = 0;
  uint64_t checkpoints = 0;
  uint64_t seq_checkpoints = 0;
  uint64_t clean_bytes = 0;
  /// Segment files replayed (0 in single-file mode).
  uint64_t segments = 0;
  Status tail = Status::OK();
};

/// Replay callbacks. `on_frame` receives each logged frame verbatim;
/// `on_checkpoint` receives the checkpoint's sketch frames and must RESET
/// the consumer's state to them (not merge — a mid-log checkpoint already
/// contains every earlier frame's contribution); `on_seq_checkpoint`
/// likewise RESETS the consumer's dedup window. A callback error aborts
/// the replay with that error.
struct WalConsumer {
  std::function<Status(std::string_view frame)> on_frame;
  std::function<Status(const std::vector<std::string>& sketches)>
      on_checkpoint;
  std::function<Status(const std::vector<WalSeqEntry>& entries)>
      on_seq_checkpoint;
};

/// Replays the log at `path` through `consumer`. A missing or empty file
/// is an empty log (zero records, OK tail). See WalReplayStats for the
/// torn-tail contract; bad header magic/version and valid-CRC-but-
/// malformed records are hard errors.
Result<WalReplayStats> ReplayWal(const std::string& path,
                                 const WalConsumer& consumer);

/// fsyncs the directory containing `path`, making a just-renamed,
/// -created, or -unlinked entry durable against power loss (file-content
/// fsync alone does not persist the dirent). Filesystems that reject
/// directory fsync (EINVAL) are treated as OK.
Status SyncParentDir(const std::string& path);

/// \brief Appender for one collector's write-ahead log.
class WalWriter {
 public:
  /// Opens `path` for appending at offset `resume_at` — the replay's
  /// clean_bytes — truncating any torn tail past it. A fresh or empty
  /// log (resume_at < header size) is (re)initialized with the file
  /// header. The caller replays BEFORE opening: opening truncates.
  static Result<WalWriter> Open(const std::string& path, uint64_t resume_at,
                                const WalOptions& options = {});
  ~WalWriter();
  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one accepted wire frame as a frame record: the 9-byte head
  /// and the caller's frame go out in one gather write, without copying
  /// the frame.
  Status AppendFrame(std::string_view frame);

  /// Log compaction: atomically replaces the whole log with one
  /// checkpoint record holding `sketches` (written to a temp file,
  /// fsynced, renamed over the log, parent directory fsynced). After
  /// Compact the log replays to exactly the checkpointed state. The
  /// two-argument form also persists the dedup window as a type-3
  /// record (omitted when `seqs` is empty).
  Status Compact(const std::vector<std::string>& sketches);
  Status Compact(const std::vector<std::string>& sketches,
                 const std::vector<WalSeqEntry>& seqs);

  /// fsyncs the log fd (a no-op durability-wise if nothing was written).
  Status Sync();

  /// Current log size in bytes (header + intact records).
  uint64_t bytes() const { return bytes_; }
  const std::string& path() const { return path_; }
  const WalOptions& options() const { return options_; }

 private:
  WalWriter(int fd, std::string path, uint64_t bytes, WalOptions options);

  int fd_ = -1;
  std::string path_;
  uint64_t bytes_ = 0;
  WalOptions options_;
};

/// \brief Mode-dispatching facade over the single-file and segmented WAL
/// layouts: replays existing state through `consumer`, then attaches a
/// writer resumed at the clean prefix. Collectors hold a WalLog and never
/// care which layout is underneath (WalOptions::segment_bytes decides).
class WalLog {
 public:
  /// Replays the log at `path` (a file, or a segment directory when
  /// options.segment_bytes > 0 — created if missing) through `consumer`,
  /// then opens the writer at the replay's clean prefix. Replay findings
  /// are kept in recovery().
  static Result<WalLog> Open(const std::string& path,
                             const WalOptions& options,
                             const WalConsumer& consumer);

  /// Appends one accepted wire frame; in segmented mode, seals the active
  /// segment and opens the next once it reaches segment_bytes.
  Status AppendFrame(std::string_view frame);

  /// Compaction. Single-file: atomic whole-log replacement (see
  /// WalWriter::Compact). Segmented: writes the checkpoint (+ dedup
  /// window) into a FRESH segment, then unlinks all older segments
  /// oldest-first — a crash at any point leaves a contiguous,
  /// replayable segment suffix.
  Status Compact(const std::vector<std::string>& sketches,
                 const std::vector<WalSeqEntry>& seqs = {});

  /// fsyncs the active log file.
  Status Sync();

  /// What replay found when this log was opened.
  const WalReplayStats& recovery() const { return recovery_; }
  /// Bytes in the active file/segment (header + intact records).
  uint64_t bytes() const { return writer_->bytes(); }
  /// Live segment-file count (0 in single-file mode).
  uint64_t segments() const { return segments_; }
  const std::string& path() const { return path_; }
  const WalOptions& options() const { return options_; }

 private:
  WalLog() = default;

  std::string path_;
  WalOptions options_;
  std::optional<WalWriter> writer_;
  WalReplayStats recovery_;
  /// Segmented mode: the active segment's number (segments are 1-based).
  uint64_t active_seq_ = 0;
  uint64_t segments_ = 0;
};

}  // namespace numdist::serve
