// In-memory spans recorded around the benchmark's own calls into each
// layer, plus the small statistics helpers the report needs.
//
// A span has a name, a start, an end and the span that caused it (its
// parent). Spans stay in memory while the benchmark runs and are written
// out once it ends. A span's self time is its duration minus the part of
// its interval that its child spans cover.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock since the process started timing.
int64_t NowNs();

/// Every span name the benchmark records. The prefix of each name is the
/// src/ module whose public call the span wraps (client = the generator).
enum class SpanName : uint8_t {
  kClientFrame,     // one frame: queued/due -> ack received
  kClientSend,      // frame queued -> last byte accepted by the kernel
  kClientBlocked,   // one connection's socket full -> drained
  kClientAck,       // ack receipt (zero length)
  kEstimateTick,    // live-estimate sink call (zero length)
  kReplayFrame,     // one frame of the serial replay
  kCommonCrc,       // Crc32c over the frame bytes
  kWireDecode,      // PeekFrame + DecodeReportFrame
  kServeClaim,      // SequenceTracker::Claim
  kServeHandle,     // CollectorSession::HandleFrame, no WAL attached
  kServeWalAppend,  // WalLog::AppendFrame, sync off
  kServeWalSync,    // WalLog::Sync
  kNetReplicaWrite, // net::WriteAll of one prefixed frame to a standby
  kServeWalCompact, // WalLog::Compact(sketches, SequenceTracker::Export())
  kCount,
};

struct Span {
  SpanName name;
  int32_t parent;  // index into Tracer::spans(), -1 for a root span
  int64_t start_ns;
  int64_t end_ns;
};

/// \brief Append-only span store; a disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Opens a span now; returns its id (-1 when disabled).
  int32_t Begin(SpanName name, int32_t parent = -1);
  /// Closes span `id` now (no-op for -1).
  void End(int32_t id);
  /// Records a span with known bounds; returns its id.
  int32_t Record(SpanName name, int32_t parent, int64_t start_ns,
                 int64_t end_ns);
  /// Moves a span's end (e.g. a frame span closed by its ack).
  void SetEnd(int32_t id, int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span, indexed like spans().
  std::vector<int64_t> SelfTimes() const;

  /// Writes one tab-separated line per span (id, parent, name, start_ns,
  /// end_ns, self_ns). Returns false when the file cannot be written.
  bool WriteTsv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Value at quantile q in [0, 1] (nearest rank); 0 for an empty sample.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

}  // namespace perfbench
