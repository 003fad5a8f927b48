// The benchmark's load generator: one thread, a handful of non-blocking
// TCP connections opened with net::Dial, frames stamped with
// wire::StampSequenceContext (epoch = connection index + 1) and prefixed
// with serve::AppendFramePrefix, acks read back through
// serve::FrameDecoder + wire::DecodeAckFrame.
//
// Closed loop: each connection keeps at most `window` frames unacked and
// sends the next one as soon as an ack frees a slot; a frame's latency
// runs from when it was queued. Open loop: frame k is due at
// start + k / rate regardless of how the collector keeps up (frames go
// round-robin over the connections); a frame's latency runs from its due
// time, so a stall also charges the frames queued behind it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "net/socket.h"
#include "serve/framing.h"
#include "trace.h"

namespace perfbench {

/// Pre-encoded report frames the generator cycles through. The frame sent
/// as (connection c, seq s) is a fixed pool entry, so a run's frames can
/// be rebuilt from their (c, s) alone.
struct FramePool {
  std::vector<std::string> frames;  // unstamped report frames
  size_t connections = 1;

  size_t IndexOf(uint32_t conn, uint64_t seq) const {
    return static_cast<size_t>(((seq - 1) * connections + conn) %
                               frames.size());
  }
  /// The wire bytes of (conn, seq): the pool frame with its sequence
  /// context (epoch = conn + 1) stamped on, written into `*out`.
  void Stamped(uint32_t conn, uint64_t seq, std::string* out) const;
};

struct GeneratorConfig {
  bool closed_loop = true;
  size_t window = 32;      // closed loop: most unacked frames per connection
  double rate_fps = 0.0;   // open loop: offered frames per second (total)
  double seconds = 1.0;    // closed loop: sending period; open loop: schedule
  /// Sent before `seconds` begins and left out of every measurement: the
  /// collector's first live-estimate ticks start EM from scratch on few
  /// reports, a start-of-collection transient no later frame pays.
  double warmup_s = 0.0;
  /// Traced runs record the client spans of every n-th frame only, which
  /// keeps the span store small at high frame rates.
  size_t span_every = 1;
};

struct SentFrame {
  uint32_t conn = 0;
  uint32_t seq = 0;
  int64_t start_ns = 0;    // due time (open loop) or queue time (closed)
  int64_t acked_ns = -1;   // -1 = never acked
  int32_t span = -1;       // client.frame span (traced runs)
  int32_t send_span = -1;  // client.send span (traced runs)
};

struct GeneratorResult {
  std::vector<SentFrame> frames;  // every frame attempted, in queue order
  /// Start of the measured period: frames due/queued before it are
  /// warm-up frames.
  int64_t first_ns = 0;
  uint64_t acked = 0;
  /// Ack frames that did not decode or named no outstanding frame.
  uint64_t bad_acks = 0;
  /// Connections lost mid-run (send/recv error or server close).
  uint64_t dead_connections = 0;
  numdist::Status first_error = numdist::Status::OK();
  /// How late the generator itself ran: open loop, queue time minus due
  /// time; closed loop, queue time minus the ack that freed the slot.
  std::vector<double> late_ms;
  /// Total time connections spent with a full socket send buffer.
  double write_blocked_ms = 0.0;
  /// Idle round trips (one frame in flight) from IdleProbes.
  std::vector<double> idle_rtt_us;
};

class Generator {
 public:
  /// Dials `connections` sockets to `endpoint` and switches them to
  /// non-blocking mode with TCP_NODELAY.
  static numdist::Result<std::unique_ptr<Generator>> Make(
      const numdist::net::Endpoint& endpoint, const FramePool* pool,
      GeneratorConfig config, Tracer* tracer);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Runs the configured schedule, then waits for outstanding acks (up to
  /// 30 s, or until `server_done` is set).
  void Run(const std::atomic<bool>& server_done);

  /// Sends `n` frames one at a time on connection 0, each only after the
  /// previous one's ack arrived; records each round trip.
  void IdleProbes(size_t n, const std::atomic<bool>& server_done);

  /// Half-closes every connection and waits (bounded) until the server
  /// closes its side, so no unread byte turns the close into a reset.
  void Close();

  /// Moves the recorded result out; call once, after the last send.
  GeneratorResult TakeResult() { return std::move(result_); }

 private:
  struct Conn;

  Generator(const FramePool* pool, GeneratorConfig config, Tracer* tracer);
  void Enqueue(Conn* conn, int64_t start_ns, int64_t now);
  void Flush(Conn* conn, int64_t now);
  void ReadAcks(Conn* conn);
  void KillConn(Conn* conn, const numdist::Status& why);
  /// Waits until a socket is readable (or writable with pending bytes)
  /// or `timeout_ns` passes.
  void Wait(int64_t timeout_ns);
  uint64_t Outstanding() const;

  const FramePool* pool_;
  GeneratorConfig config_;
  Tracer* tracer_;
  std::vector<std::unique_ptr<Conn>> conns_;
  GeneratorResult result_;
  std::string scratch_;
};

}  // namespace perfbench
