#include "generator.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>

#include "wire/wire.h"

namespace perfbench {

using numdist::Status;

namespace {
/// How long to wait for outstanding acks once sending has stopped.
constexpr int64_t kAckTimeoutNs = 30'000'000'000;
}  // namespace

void FramePool::Stamped(uint32_t conn, uint64_t seq, std::string* out) const {
  out->assign(frames[IndexOf(conn, seq)]);
  // Stamping a pool report frame with a fresh (epoch, seq >= 1) cannot
  // fail; a failure would mean the pool itself is broken.
  const Status st = numdist::wire::StampSequenceContext(
      out, numdist::wire::FrameSeq{.epoch = conn + 1u, .seq = seq});
  if (!st.ok()) out->clear();
}

struct Generator::Conn {
  numdist::net::Fd fd;
  uint32_t index = 0;
  bool dead = false;
  std::string out;        // queued transport bytes
  size_t out_off = 0;     // bytes of `out` the kernel already took
  uint64_t queued_bytes = 0;   // cumulative bytes queued
  uint64_t written_bytes = 0;  // cumulative bytes the kernel accepted
  /// (cumulative end offset, frame index) of frames not fully written.
  std::deque<std::pair<uint64_t, size_t>> unsent;
  numdist::serve::FrameDecoder decoder;
  uint64_t next_seq = 1;
  std::vector<uint32_t> frame_of_seq;  // seq - 1 -> result_.frames index
  uint64_t unacked = 0;
  /// Closed loop: when each freed window slot became free.
  std::deque<int64_t> freed_at;
  int64_t blocked_since = -1;  // socket full since (ns), -1 = not blocked
};

Generator::Generator(const FramePool* pool, GeneratorConfig config,
                     Tracer* tracer)
    : pool_(pool), config_(config), tracer_(tracer) {}

Generator::~Generator() = default;

numdist::Result<std::unique_ptr<Generator>> Generator::Make(
    const numdist::net::Endpoint& endpoint, const FramePool* pool,
    GeneratorConfig config, Tracer* tracer) {
  std::unique_ptr<Generator> gen(new Generator(pool, config, tracer));
  for (size_t i = 0; i < pool->connections; ++i) {
    auto conn = std::make_unique<Conn>();
    conn->index = static_cast<uint32_t>(i);
    NUMDIST_ASSIGN_OR_RETURN(conn->fd, numdist::net::Dial(endpoint));
    NUMDIST_RETURN_NOT_OK(numdist::net::SetNonBlocking(conn->fd.get()));
    // Small frames must leave when queued, not when Nagle's algorithm
    // decides; the collector's own sockets are left as it sets them.
    const int one = 1;
    if (setsockopt(conn->fd.get(), IPPROTO_TCP, TCP_NODELAY, &one,
                   sizeof(one)) != 0) {
      return Status::Internal("setsockopt(TCP_NODELAY) failed");
    }
    gen->conns_.push_back(std::move(conn));
  }
  return gen;
}

void Generator::Enqueue(Conn* conn, int64_t start_ns, int64_t now) {
  const uint32_t seq = static_cast<uint32_t>(conn->next_seq++);
  pool_->Stamped(conn->index, seq, &scratch_);
  const size_t index = result_.frames.size();
  SentFrame frame;
  frame.conn = conn->index;
  frame.seq = seq;
  frame.start_ns = start_ns;
  if (index % config_.span_every == 0) {
    frame.span =
        tracer_->Record(SpanName::kClientFrame, -1, start_ns, start_ns);
    frame.send_span =
        tracer_->Record(SpanName::kClientSend, frame.span, now, now);
  }
  result_.frames.push_back(frame);
  conn->frame_of_seq.push_back(static_cast<uint32_t>(index));
  ++conn->unacked;
  if (conn->dead) return;  // attempted, never sent: counted as failed
  numdist::serve::AppendFramePrefix(scratch_.size(), &conn->out);
  conn->out.append(scratch_);
  conn->queued_bytes += sizeof(uint32_t) + scratch_.size();
  conn->unsent.emplace_back(conn->queued_bytes, index);
}

void Generator::Flush(Conn* conn, int64_t now) {
  while (!conn->dead && conn->out_off < conn->out.size()) {
    const ssize_t wrote =
        send(conn->fd.get(), conn->out.data() + conn->out_off,
             conn->out.size() - conn->out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (conn->blocked_since < 0) conn->blocked_since = now;
        return;
      }
      KillConn(conn, Status::Internal(std::string("send: ") +
                                      std::strerror(errno)));
      return;
    }
    if (conn->blocked_since >= 0) {
      result_.write_blocked_ms +=
          static_cast<double>(now - conn->blocked_since) / 1e6;
      tracer_->Record(SpanName::kClientBlocked, -1, conn->blocked_since, now);
      conn->blocked_since = -1;
    }
    conn->out_off += static_cast<size_t>(wrote);
    conn->written_bytes += static_cast<uint64_t>(wrote);
    while (!conn->unsent.empty() &&
           conn->unsent.front().first <= conn->written_bytes) {
      tracer_->SetEnd(result_.frames[conn->unsent.front().second].send_span,
                      now);
      conn->unsent.pop_front();
    }
  }
  if (conn->out_off == conn->out.size()) {
    conn->out.clear();
    conn->out_off = 0;
  } else if (conn->out_off > (1u << 20)) {
    conn->out.erase(0, conn->out_off);
    conn->out_off = 0;
  }
}

void Generator::ReadAcks(Conn* conn) {
  char buf[64 * 1024];
  std::string frame;
  while (!conn->dead) {
    const ssize_t got = recv(conn->fd.get(), buf, sizeof(buf), MSG_DONTWAIT);
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      KillConn(conn, Status::Internal(std::string("recv: ") +
                                      std::strerror(errno)));
      return;
    }
    if (got == 0) {
      KillConn(conn, Status::Internal("collector closed the connection"));
      return;
    }
    const int64_t now = NowNs();
    const Status fed =
        conn->decoder.Feed(std::string_view(buf, static_cast<size_t>(got)));
    if (!fed.ok()) {
      KillConn(conn, fed);
      return;
    }
    while (conn->decoder.Next(&frame)) {
      const numdist::Result<numdist::wire::FrameSeq> ack =
          numdist::wire::DecodeAckFrame(frame);
      if (!ack.ok() || ack->epoch != conn->index + 1u || ack->seq == 0 ||
          ack->seq >= conn->next_seq) {
        ++result_.bad_acks;
        continue;
      }
      SentFrame& f = result_.frames[conn->frame_of_seq[ack->seq - 1]];
      if (f.acked_ns >= 0) {
        ++result_.bad_acks;  // a second ack for one frame
        continue;
      }
      f.acked_ns = now;
      if (f.span >= 0) {
        tracer_->SetEnd(f.span, now);
        tracer_->Record(SpanName::kClientAck, f.span, now, now);
      }
      --conn->unacked;
      ++result_.acked;
      if (config_.closed_loop) conn->freed_at.push_back(now);
    }
  }
}

void Generator::KillConn(Conn* conn, const Status& why) {
  if (conn->dead) return;
  conn->dead = true;
  ++result_.dead_connections;
  if (result_.first_error.ok()) result_.first_error = why;
  conn->out.clear();
  conn->out_off = 0;
  conn->unsent.clear();
}

uint64_t Generator::Outstanding() const {
  uint64_t n = 0;
  for (const auto& conn : conns_) {
    if (!conn->dead) n += conn->unacked;
  }
  return n;
}

void Generator::Wait(int64_t timeout_ns) {
  std::vector<pollfd> fds;
  for (const auto& conn : conns_) {
    if (conn->dead) continue;
    short events = POLLIN;
    if (conn->out_off < conn->out.size()) events |= POLLOUT;
    fds.push_back({conn->fd.get(), events, 0});
  }
  timeout_ns = std::max<int64_t>(0, timeout_ns);
  timespec ts{static_cast<time_t>(timeout_ns / 1000000000),
              static_cast<long>(timeout_ns % 1000000000)};
  (void)ppoll(fds.data(), fds.size(), &ts, nullptr);
}

void Generator::Run(const std::atomic<bool>& server_done) {
  // Wake for each due frame within a microsecond instead of the default
  // 50 us timer slack, so the schedule, not the timer, sets send times.
  (void)prctl(PR_SET_TIMERSLACK, 1000UL);
  constexpr int64_t kPollSliceNs = 20'000'000;  // re-check server_done
  const int64_t start = NowNs();
  const int64_t warmup_ns = static_cast<int64_t>(config_.warmup_s * 1e9);
  result_.first_ns = start + warmup_ns;
  const int64_t schedule_ns =
      warmup_ns + static_cast<int64_t>(config_.seconds * 1e9);
  const uint64_t total =
      config_.closed_loop
          ? 0
          : static_cast<uint64_t>(std::llround(
                config_.rate_fps * (config_.warmup_s + config_.seconds)));
  const double period_ns = config_.closed_loop ? 0.0 : 1e9 / config_.rate_fps;
  const auto due = [&](uint64_t k) {
    return start + static_cast<int64_t>(std::llround(
                       static_cast<double>(k) * period_ns));
  };
  // An open loop knows its frame count: reserving up front keeps vector
  // doubling from inflating peak memory.
  result_.frames.reserve(total);
  result_.late_ms.reserve(total);
  for (auto& conn : conns_) {
    conn->frame_of_seq.reserve(total / conns_.size() + 1);
  }
  uint64_t k = 0;
  int64_t sends_done_at = -1;
  for (;;) {
    for (auto& conn : conns_) ReadAcks(conn.get());
    const int64_t now = NowNs();
    bool sending = false;
    if (config_.closed_loop) {
      sending = now - start < schedule_ns;
      if (sending) {
        for (auto& conn : conns_) {
          while (!conn->dead && conn->unacked < config_.window) {
            if (!conn->freed_at.empty()) {
              if (now >= result_.first_ns) {
                result_.late_ms.push_back(
                    static_cast<double>(now - conn->freed_at.front()) / 1e6);
              }
              conn->freed_at.pop_front();
            }
            Enqueue(conn.get(), now, now);
          }
        }
      }
    } else {
      while (k < total && due(k) <= now) {
        if (due(k) >= result_.first_ns) {
          result_.late_ms.push_back(static_cast<double>(now - due(k)) / 1e6);
        }
        Enqueue(conns_[k % conns_.size()].get(), due(k), now);
        ++k;
      }
      sending = k < total;
    }
    for (auto& conn : conns_) Flush(conn.get(), now);
    if (!sending && sends_done_at < 0) sends_done_at = now;
    if (!sending &&
        (Outstanding() == 0 || now - sends_done_at > kAckTimeoutNs)) {
      break;
    }
    if (server_done.load(std::memory_order_acquire)) {
      // Run returned: read what it flushed before exiting, then stop.
      for (auto& conn : conns_) ReadAcks(conn.get());
      break;
    }
    int64_t timeout = kPollSliceNs;
    if (!config_.closed_loop && k < total) {
      timeout = std::min(timeout, due(k) - NowNs());
    } else if (config_.closed_loop && sending) {
      timeout = std::min(timeout, start + schedule_ns - NowNs());
    }
    Wait(timeout);
  }
}

void Generator::IdleProbes(size_t n, const std::atomic<bool>& server_done) {
  Conn* conn = conns_[0].get();
  for (size_t i = 0; i < n && !conn->dead; ++i) {
    const int64_t queued = NowNs();
    Enqueue(conn, queued, queued);
    const uint64_t before = result_.acked;
    const int64_t give_up = queued + kAckTimeoutNs;
    while (!conn->dead && result_.acked == before) {
      const int64_t now = NowNs();
      Flush(conn, now);
      ReadAcks(conn);
      if (result_.acked != before) break;
      if (now > give_up || server_done.load(std::memory_order_acquire)) {
        return;
      }
      Wait(20'000'000);
    }
    const SentFrame& f = result_.frames.back();
    if (f.acked_ns >= 0) {
      result_.idle_rtt_us.push_back(
          static_cast<double>(f.acked_ns - f.start_ns) / 1e3);
    }
  }
}

void Generator::Close() {
  for (auto& conn : conns_) {
    if (!conn->dead) (void)shutdown(conn->fd.get(), SHUT_WR);
  }
  const int64_t give_up = NowNs() + 10'000'000'000;
  char buf[4096];
  for (auto& conn : conns_) {
    while (!conn->dead && NowNs() < give_up) {
      const ssize_t got = recv(conn->fd.get(), buf, sizeof(buf), MSG_DONTWAIT);
      if (got == 0) break;  // the collector closed its side
      if (got > 0) continue;
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) break;
      pollfd p{conn->fd.get(), POLLIN, 0};
      (void)poll(&p, 1, 20);
    }
    conn->fd.reset();
  }
}

}  // namespace perfbench
