#include "serve/wal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/bytes.h"
#include "common/crc32.h"
#include "serve/framing.h"

namespace numdist::serve {

namespace {

Status Errno(const std::string& what) {
  return Status::Internal("wal: " + what + " failed (" +
                          std::strerror(errno) + ")");
}

// Reads exactly `len` bytes unless EOF intervenes; returns bytes read.
Result<size_t> ReadUpTo(int fd, char* dst, size_t len) {
  size_t off = 0;
  while (off < len) {
    const ssize_t got = read(fd, dst + off, len - off);
    if (got < 0) {
      if (errno == EINTR) continue;
      return Errno("read");
    }
    if (got == 0) break;
    off += static_cast<size_t>(got);
  }
  return off;
}

void AppendHeader(std::string* out) {
  ByteWriter writer(out);
  writer.PutU32(kWalMagic);
  writer.PutU16(kWalVersion);
  writer.PutU16(0);
}

// Record = u32 body length, u32 CRC-32C(body), body.
void AppendRecord(std::string_view body, std::string* out) {
  ByteWriter writer(out);
  writer.PutU32(static_cast<uint32_t>(body.size()));
  writer.PutU32(Crc32c(body));
  writer.PutBytes(body.data(), body.size());
}

std::string CheckpointBody(const std::vector<std::string>& sketches) {
  std::string body;
  ByteWriter writer(&body);
  writer.PutU8(static_cast<uint8_t>(WalRecordType::kCheckpoint));
  writer.PutU32(static_cast<uint32_t>(sketches.size()));
  for (const std::string& sketch : sketches) {
    writer.PutU32(static_cast<uint32_t>(sketch.size()));
    writer.PutBytes(sketch.data(), sketch.size());
  }
  return body;
}

std::string SeqCheckpointBody(const std::vector<WalSeqEntry>& entries) {
  std::string body;
  ByteWriter writer(&body);
  writer.PutU8(static_cast<uint8_t>(WalRecordType::kSeqCheckpoint));
  writer.PutU32(static_cast<uint32_t>(entries.size()));
  for (const WalSeqEntry& entry : entries) {
    writer.PutU64(entry.epoch);
    writer.PutU64(entry.floor);
    writer.PutU32(static_cast<uint32_t>(entry.sparse.size()));
    for (uint64_t seq : entry.sparse) writer.PutU64(seq);
  }
  return body;
}

// The torn-tail taxonomy: truncation and checksum failures are what a
// crashed write leaves behind, so they end replay with the prefix state
// instead of failing it.
Status TornTail(uint64_t offset, const std::string& why) {
  return Status::OutOfRange("wal: torn tail at byte " +
                            std::to_string(offset) + ": " + why);
}

Status DecodeCheckpointBody(std::string_view payload,
                            std::vector<std::string>* sketches) {
  ByteReader in(payload);
  NUMDIST_ASSIGN_OR_RETURN(const uint32_t count, in.U32());
  sketches->clear();
  sketches->reserve(std::min<size_t>(count, in.remaining() / 4));
  for (uint32_t i = 0; i < count; ++i) {
    NUMDIST_ASSIGN_OR_RETURN(const uint32_t len, in.U32());
    if (len > in.remaining()) {
      return Status::InvalidArgument(
          "wal: checkpoint sketch length exceeds the record payload");
    }
    std::string sketch(len, '\0');
    NUMDIST_RETURN_NOT_OK(in.Bytes(sketch.data(), len));
    sketches->push_back(std::move(sketch));
  }
  if (!in.AtEnd()) {
    return Status::InvalidArgument(
        "wal: trailing byte(s) after checkpoint payload");
  }
  return Status::OK();
}

Status DecodeSeqCheckpointBody(std::string_view payload,
                               std::vector<WalSeqEntry>* entries) {
  ByteReader in(payload);
  NUMDIST_ASSIGN_OR_RETURN(const uint32_t count, in.U32());
  entries->clear();
  // Each entry needs at least its epoch/floor/count fields (20 bytes);
  // bound before reserving so a hostile count cannot drive allocation.
  if (count > in.remaining() / 20) {
    return Status::InvalidArgument(
        "wal: seq checkpoint entry count exceeds the record payload");
  }
  entries->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    WalSeqEntry entry;
    NUMDIST_ASSIGN_OR_RETURN(entry.epoch, in.U64());
    NUMDIST_ASSIGN_OR_RETURN(entry.floor, in.U64());
    NUMDIST_ASSIGN_OR_RETURN(const uint32_t sparse_count, in.U32());
    if (sparse_count > in.remaining() / sizeof(uint64_t)) {
      return Status::InvalidArgument(
          "wal: seq checkpoint sparse count exceeds the record payload");
    }
    entry.sparse.reserve(sparse_count);
    for (uint32_t j = 0; j < sparse_count; ++j) {
      NUMDIST_ASSIGN_OR_RETURN(const uint64_t seq, in.U64());
      entry.sparse.push_back(seq);
    }
    entries->push_back(std::move(entry));
  }
  if (!in.AtEnd()) {
    return Status::InvalidArgument(
        "wal: trailing byte(s) after seq checkpoint payload");
  }
  return Status::OK();
}

}  // namespace

Result<WalReplayStats> ReplayWal(const std::string& path,
                                 const WalConsumer& consumer) {
  WalReplayStats stats;
  const int fd = open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return stats;  // no log yet: empty history
    return Errno("open '" + path + "'");
  }
  struct FdCloser {
    int fd;
    ~FdCloser() { close(fd); }
  } closer{fd};

  char header[kWalHeaderBytes];
  NUMDIST_ASSIGN_OR_RETURN(const size_t header_got,
                           ReadUpTo(fd, header, sizeof(header)));
  if (header_got == 0) return stats;  // empty file: empty history
  if (header_got < sizeof(header)) {
    stats.tail = TornTail(0, "log shorter than the file header");
    return stats;
  }
  {
    ByteReader in(std::string_view(header, sizeof(header)));
    const uint32_t magic = in.U32().ValueOrDie();
    const uint16_t version = in.U16().ValueOrDie();
    if (magic != kWalMagic) {
      return Status::InvalidArgument(
          "wal: bad magic in '" + path + "' (not a numdist WAL)");
    }
    if (version != kWalVersion) {
      return Status::FailedPrecondition(
          "wal: unsupported WAL version " + std::to_string(version) +
          " (this build reads version " + std::to_string(kWalVersion) + ")");
    }
  }
  stats.clean_bytes = kWalHeaderBytes;

  std::string body;
  std::vector<std::string> sketches;
  std::vector<WalSeqEntry> seq_entries;
  for (;;) {
    char record_header[8];
    NUMDIST_ASSIGN_OR_RETURN(const size_t got,
                             ReadUpTo(fd, record_header, sizeof(record_header)));
    if (got == 0) break;  // clean record boundary
    if (got < sizeof(record_header)) {
      stats.tail = TornTail(stats.clean_bytes, "record header cut short");
      return stats;
    }
    ByteReader in(std::string_view(record_header, sizeof(record_header)));
    const uint32_t len = in.U32().ValueOrDie();
    const uint32_t crc = in.U32().ValueOrDie();
    if (len == 0) {
      // A zero length with a zero CRC is exactly what a zero-filled
      // (preallocated) tail reads as; classify it as torn, not as a
      // record.
      stats.tail = TornTail(stats.clean_bytes, "empty record body");
      return stats;
    }
    if (len > kMaxWalRecordBytes) {
      stats.tail = TornTail(stats.clean_bytes,
                            "record length " + std::to_string(len) +
                                " exceeds the record ceiling");
      return stats;
    }
    body.resize(len);
    NUMDIST_ASSIGN_OR_RETURN(const size_t body_got,
                             ReadUpTo(fd, body.data(), len));
    if (body_got < len) {
      stats.tail = TornTail(stats.clean_bytes, "record body cut short");
      return stats;
    }
    if (Crc32c(body) != crc) {
      stats.tail = TornTail(stats.clean_bytes, "record CRC mismatch");
      return stats;
    }
    // From here the record is intact: malformed content is corruption a
    // torn write cannot explain, and therefore a hard error.
    const auto type = static_cast<WalRecordType>(
        static_cast<uint8_t>(body[0]));
    const std::string_view payload(body.data() + 1, body.size() - 1);
    switch (type) {
      case WalRecordType::kFrame:
        if (consumer.on_frame) {
          NUMDIST_RETURN_NOT_OK(consumer.on_frame(payload));
        }
        ++stats.frames;
        break;
      case WalRecordType::kCheckpoint:
        NUMDIST_RETURN_NOT_OK(DecodeCheckpointBody(payload, &sketches));
        if (consumer.on_checkpoint) {
          NUMDIST_RETURN_NOT_OK(consumer.on_checkpoint(sketches));
        }
        ++stats.checkpoints;
        break;
      case WalRecordType::kSeqCheckpoint:
        NUMDIST_RETURN_NOT_OK(DecodeSeqCheckpointBody(payload, &seq_entries));
        if (consumer.on_seq_checkpoint) {
          NUMDIST_RETURN_NOT_OK(consumer.on_seq_checkpoint(seq_entries));
        }
        ++stats.seq_checkpoints;
        break;
      default:
        return Status::InvalidArgument(
            "wal: unknown record type " +
            std::to_string(static_cast<int>(type)) + " at byte " +
            std::to_string(stats.clean_bytes));
    }
    stats.clean_bytes += sizeof(record_header) + len;
  }
  return stats;
}

Status SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : (slash == 0 ? "/" : path.substr(0, slash));
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Errno("open dir '" + dir + "'");
  Status st = Status::OK();
  // Some filesystems refuse to fsync a directory fd; a crashed rename on
  // those is as durable as it gets, so EINVAL is not an error here.
  if (fsync(fd) != 0 && errno != EINVAL) st = Errno("fsync dir '" + dir + "'");
  close(fd);
  return st;
}

Result<WalWriter> WalWriter::Open(const std::string& path, uint64_t resume_at,
                                  const WalOptions& options) {
  const int fd = open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return Errno("open '" + path + "'");
  uint64_t bytes = 0;
  if (resume_at < kWalHeaderBytes) {
    // Fresh (or unreadably short) log: rewrite from scratch.
    if (ftruncate(fd, 0) != 0) {
      close(fd);
      return Errno("ftruncate '" + path + "'");
    }
    std::string header;
    AppendHeader(&header);
    const Status wrote = WriteAllFd(fd, header);
    if (!wrote.ok()) {
      close(fd);
      return wrote;
    }
    bytes = kWalHeaderBytes;
  } else {
    // Resume after the replayed clean prefix; the torn tail (if any) is
    // discarded here so a crashed write can never precede fresh records.
    if (ftruncate(fd, static_cast<off_t>(resume_at)) != 0) {
      close(fd);
      return Errno("ftruncate '" + path + "'");
    }
    if (lseek(fd, 0, SEEK_END) < 0) {
      close(fd);
      return Errno("lseek '" + path + "'");
    }
    bytes = resume_at;
  }
  return WalWriter(fd, path, bytes, options);
}

WalWriter::WalWriter(int fd, std::string path, uint64_t bytes,
                     WalOptions options)
    : fd_(fd), path_(std::move(path)), bytes_(bytes), options_(options) {}

WalWriter::~WalWriter() {
  if (fd_ >= 0) close(fd_);
}

WalWriter::WalWriter(WalWriter&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      bytes_(other.bytes_),
      options_(other.options_) {}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    bytes_ = other.bytes_;
    options_ = other.options_;
  }
  return *this;
}

Status WalWriter::AppendFrame(std::string_view frame) {
  // The record AppendRecord would build for body = type byte ‖ frame,
  // without materialising the body: a 9-byte head (length, CRC chained
  // over the type byte and then the frame, type byte) gather-written in
  // front of the caller's frame bytes.
  const char type = static_cast<char>(WalRecordType::kFrame);
  std::string head;
  ByteWriter writer(&head);
  writer.PutU32(static_cast<uint32_t>(1 + frame.size()));
  writer.PutU32(Crc32c(frame, Crc32c(&type, 1)));
  writer.PutU8(static_cast<uint8_t>(type));
  NUMDIST_RETURN_NOT_OK(WriteAllFd(fd_, head, frame));
  bytes_ += head.size() + frame.size();
  if (options_.sync_each_record) return Sync();
  return Status::OK();
}

Status WalWriter::Compact(const std::vector<std::string>& sketches) {
  return Compact(sketches, {});
}

Status WalWriter::Compact(const std::vector<std::string>& sketches,
                          const std::vector<WalSeqEntry>& seqs) {
  const std::string tmp_path = path_ + ".compact.tmp";
  const int tmp_fd =
      open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (tmp_fd < 0) return Errno("open '" + tmp_path + "'");
  std::string log;
  AppendHeader(&log);
  AppendRecord(CheckpointBody(sketches), &log);
  if (!seqs.empty()) AppendRecord(SeqCheckpointBody(seqs), &log);
  Status st = WriteAllFd(tmp_fd, log);
  // The rename is what makes compaction atomic: a crash before it leaves
  // the old log intact, a crash after it leaves the checkpoint-only log.
  // fsync the temp file first so the rename never publishes empty bytes.
  if (st.ok() && fsync(tmp_fd) != 0) st = Errno("fsync '" + tmp_path + "'");
  if (close(tmp_fd) != 0 && st.ok()) st = Errno("close '" + tmp_path + "'");
  if (!st.ok()) {
    unlink(tmp_path.c_str());
    return st;
  }
  if (rename(tmp_path.c_str(), path_.c_str()) != 0) {
    unlink(tmp_path.c_str());
    return Errno("rename '" + tmp_path + "'");
  }
  // File contents are durable (temp-file fsync); the rename's dirent is
  // not until the directory itself is synced.
  NUMDIST_RETURN_NOT_OK(SyncParentDir(path_));
  const int new_fd = open(path_.c_str(), O_RDWR | O_CLOEXEC);
  if (new_fd < 0) return Errno("reopen '" + path_ + "'");
  if (lseek(new_fd, 0, SEEK_END) < 0) {
    close(new_fd);
    return Errno("lseek '" + path_ + "'");
  }
  if (fd_ >= 0) close(fd_);
  fd_ = new_fd;
  bytes_ = log.size();
  return Status::OK();
}

Status WalWriter::Sync() {
  if (fsync(fd_) != 0) return Errno("fsync '" + path_ + "'");
  return Status::OK();
}

namespace {

// Segment files are named wal-00000001.ndwl, wal-00000002.ndwl, ...;
// numbering is 1-based and zero-padded so lexicographic order matches
// numeric order for the first hundred million segments.
std::string SegmentFileName(uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%08llu.ndwl",
                static_cast<unsigned long long>(seq));
  return name;
}

std::string SegmentPath(const std::string& dir, uint64_t seq) {
  return dir + "/" + SegmentFileName(seq);
}

// Parses "wal-<digits>.ndwl" → segment number; 0 for anything else
// (segment numbers are 1-based, so 0 doubles as "not a segment").
uint64_t ParseSegmentName(const std::string& name) {
  if (name.rfind("wal-", 0) != 0) return 0;
  if (name.size() < 10 || name.substr(name.size() - 5) != ".ndwl") return 0;
  uint64_t seq = 0;
  for (size_t i = 4; i < name.size() - 5; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return 0;
    if (seq > (UINT64_MAX - 9) / 10) return 0;
    seq = seq * 10 + static_cast<uint64_t>(c - '0');
  }
  return seq;
}

// Lists the segment numbers present in `dir`, ascending. Files that do
// not match the segment naming (including .tmp leftovers from a crashed
// compaction) are ignored.
Result<std::vector<uint64_t>> ListSegments(const std::string& dir) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return Errno("opendir '" + dir + "'");
  std::vector<uint64_t> seqs;
  for (;;) {
    errno = 0;
    const dirent* entry = readdir(d);
    if (entry == nullptr) {
      if (errno != 0) {
        const Status st = Errno("readdir '" + dir + "'");
        closedir(d);
        return st;
      }
      break;
    }
    const uint64_t seq = ParseSegmentName(entry->d_name);
    if (seq > 0) seqs.push_back(seq);
  }
  closedir(d);
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

}  // namespace

Result<WalLog> WalLog::Open(const std::string& path, const WalOptions& options,
                            const WalConsumer& consumer) {
  WalLog log;
  log.path_ = path;
  log.options_ = options;
  if (options.segment_bytes == 0) {
    // Single-file layout: replay, then resume at the clean prefix.
    NUMDIST_ASSIGN_OR_RETURN(log.recovery_, ReplayWal(path, consumer));
    NUMDIST_ASSIGN_OR_RETURN(
        WalWriter writer,
        WalWriter::Open(path, log.recovery_.clean_bytes, options));
    log.writer_.emplace(std::move(writer));
    return log;
  }
  // Segmented layout: `path` is a directory of segment files.
  if (mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    return Errno("mkdir '" + path + "'");
  }
  struct stat sb;
  if (stat(path.c_str(), &sb) != 0) return Errno("stat '" + path + "'");
  if (!S_ISDIR(sb.st_mode)) {
    return Status::InvalidArgument(
        "wal: segmented mode needs a directory, but '" + path +
        "' is a file (a single-file log cannot be reopened with "
        "--wal-segment-bytes)");
  }
  NUMDIST_ASSIGN_OR_RETURN(std::vector<uint64_t> seqs, ListSegments(path));
  if (seqs.empty()) {
    // Fresh log: create segment 1 and persist its dirent.
    log.active_seq_ = 1;
    log.segments_ = 1;
    NUMDIST_ASSIGN_OR_RETURN(
        WalWriter writer, WalWriter::Open(SegmentPath(path, 1), 0, options));
    log.writer_.emplace(std::move(writer));
    NUMDIST_RETURN_NOT_OK(SyncParentDir(SegmentPath(path, 1)));
    return log;
  }
  // GC deletes oldest-first and the writer appends highest-last, so the
  // live set must be one contiguous run; a hole means lost records.
  for (size_t i = 1; i < seqs.size(); ++i) {
    if (seqs[i] != seqs[i - 1] + 1) {
      return Status::InvalidArgument(
          "wal: segment gap in '" + path + "': " + SegmentFileName(seqs[i - 1]) +
          " is followed by " + SegmentFileName(seqs[i]));
    }
  }
  for (size_t i = 0; i < seqs.size(); ++i) {
    const std::string seg_path = SegmentPath(path, seqs[i]);
    NUMDIST_ASSIGN_OR_RETURN(const WalReplayStats stats,
                             ReplayWal(seg_path, consumer));
    log.recovery_.frames += stats.frames;
    log.recovery_.checkpoints += stats.checkpoints;
    log.recovery_.seq_checkpoints += stats.seq_checkpoints;
    log.recovery_.clean_bytes = stats.clean_bytes;
    if (!stats.tail.ok() && i + 1 < seqs.size()) {
      // Only the final segment can end mid-write: sealed segments were
      // fsynced before the next was opened, so a torn record here is
      // corruption, not a crash artifact.
      return Status::InvalidArgument(
          "wal: torn record in sealed segment '" + seg_path +
          "': " + stats.tail.message());
    }
    log.recovery_.tail = stats.tail;
  }
  log.recovery_.segments = seqs.size();
  log.active_seq_ = seqs.back();
  log.segments_ = seqs.size();
  NUMDIST_ASSIGN_OR_RETURN(
      WalWriter writer,
      WalWriter::Open(SegmentPath(path, seqs.back()),
                      log.recovery_.clean_bytes, options));
  log.writer_.emplace(std::move(writer));
  return log;
}

Status WalLog::AppendFrame(std::string_view frame) {
  NUMDIST_RETURN_NOT_OK(writer_->AppendFrame(frame));
  if (options_.segment_bytes == 0 ||
      writer_->bytes() < options_.segment_bytes) {
    return Status::OK();
  }
  // Seal the active segment (fsync so a sealed segment can never be torn)
  // and roll to the next. The new header's dirent is synced so replay
  // after power loss sees the same contiguous run the writer left.
  NUMDIST_RETURN_NOT_OK(writer_->Sync());
  const std::string next_path = SegmentPath(path_, active_seq_ + 1);
  NUMDIST_ASSIGN_OR_RETURN(WalWriter writer,
                           WalWriter::Open(next_path, 0, options_));
  writer_.emplace(std::move(writer));
  ++active_seq_;
  ++segments_;
  return SyncParentDir(next_path);
}

Status WalLog::Compact(const std::vector<std::string>& sketches,
                       const std::vector<WalSeqEntry>& seqs) {
  if (options_.segment_bytes == 0) return writer_->Compact(sketches, seqs);
  // Segmented compaction: publish the checkpoint as a fresh segment
  // (temp file + fsync + rename + dir sync), THEN garbage-collect the
  // older segments oldest-first. A crash mid-GC leaves a contiguous
  // suffix whose replay still starts at the checkpoint.
  const uint64_t new_seq = active_seq_ + 1;
  const std::string final_path = SegmentPath(path_, new_seq);
  const std::string tmp_path = final_path + ".tmp";
  const int tmp_fd =
      open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (tmp_fd < 0) return Errno("open '" + tmp_path + "'");
  std::string log;
  AppendHeader(&log);
  AppendRecord(CheckpointBody(sketches), &log);
  if (!seqs.empty()) AppendRecord(SeqCheckpointBody(seqs), &log);
  Status st = WriteAllFd(tmp_fd, log);
  if (st.ok() && fsync(tmp_fd) != 0) st = Errno("fsync '" + tmp_path + "'");
  if (close(tmp_fd) != 0 && st.ok()) st = Errno("close '" + tmp_path + "'");
  if (!st.ok()) {
    unlink(tmp_path.c_str());
    return st;
  }
  if (rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    unlink(tmp_path.c_str());
    return Errno("rename '" + tmp_path + "'");
  }
  NUMDIST_RETURN_NOT_OK(SyncParentDir(final_path));
  // The checkpoint segment is durable; everything before it is garbage.
  for (uint64_t seq = new_seq - segments_; seq < new_seq; ++seq) {
    const std::string old_path = SegmentPath(path_, seq);
    if (unlink(old_path.c_str()) != 0 && errno != ENOENT) {
      return Errno("unlink '" + old_path + "'");
    }
  }
  NUMDIST_RETURN_NOT_OK(SyncParentDir(final_path));
  NUMDIST_ASSIGN_OR_RETURN(WalWriter writer,
                           WalWriter::Open(final_path, log.size(), options_));
  writer_.emplace(std::move(writer));
  active_seq_ = new_seq;
  segments_ = 1;
  return Status::OK();
}

Status WalLog::Sync() { return writer_->Sync(); }

}  // namespace numdist::serve
