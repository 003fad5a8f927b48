#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

namespace {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kClientFrame: return "client.frame";
    case SpanName::kClientSend: return "client.send";
    case SpanName::kClientBlocked: return "client.write_blocked";
    case SpanName::kClientAck: return "client.ack";
    case SpanName::kEstimateTick: return "net.estimate_tick";
    case SpanName::kReplayFrame: return "replay.frame";
    case SpanName::kCommonCrc: return "common.crc32c";
    case SpanName::kWireDecode: return "wire.decode";
    case SpanName::kServeClaim: return "serve.claim";
    case SpanName::kServeHandle: return "serve.handle_frame";
    case SpanName::kServeWalAppend: return "serve.wal_append";
    case SpanName::kServeWalSync: return "serve.wal_fsync";
    case SpanName::kNetReplicaWrite: return "net.replica_write";
    case SpanName::kServeWalCompact: return "serve.wal_compact";
    case SpanName::kCount: break;
  }
  return "?";
}

}  // namespace

int32_t Tracer::Begin(SpanName name, int32_t parent) {
  if (!enabled_) return -1;
  const int64_t now = NowNs();
  return Record(name, parent, now, now);
}

void Tracer::End(int32_t id) {
  if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
}

int32_t Tracer::Record(SpanName name, int32_t parent, int64_t start_ns,
                       int64_t end_ns) {
  if (!enabled_) return -1;
  spans_.push_back({name, parent, start_ns, end_ns});
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::SetEnd(int32_t id, int64_t end_ns) {
  if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = end_ns;
}

std::vector<int64_t> Tracer::SelfTimes() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  // Children grouped by parent, in start order, so each parent's covered
  // time is one sweep over a merged interval list.
  std::vector<int32_t> children;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) children.push_back(static_cast<int32_t>(i));
  }
  std::sort(children.begin(), children.end(), [&](int32_t a, int32_t b) {
    const Span& x = spans_[static_cast<size_t>(a)];
    const Span& y = spans_[static_cast<size_t>(b)];
    return x.parent != y.parent ? x.parent < y.parent
                                : x.start_ns < y.start_ns;
  });
  size_t i = 0;
  while (i < children.size()) {
    const int32_t parent_id = spans_[static_cast<size_t>(children[i])].parent;
    const Span& parent = spans_[static_cast<size_t>(parent_id)];
    int64_t covered = 0;
    int64_t run_start = 0;
    int64_t run_end = -1;
    bool open = false;
    for (; i < children.size() &&
           spans_[static_cast<size_t>(children[i])].parent == parent_id;
         ++i) {
      const Span& c = spans_[static_cast<size_t>(children[i])];
      const int64_t s = std::max(c.start_ns, parent.start_ns);
      const int64_t e = std::min(c.end_ns, parent.end_ns);
      if (e <= s) continue;
      if (open && s <= run_end) {
        run_end = std::max(run_end, e);
      } else {
        if (open) covered += run_end - run_start;
        run_start = s;
        run_end = e;
        open = true;
      }
    }
    if (open) covered += run_end - run_start;
    self[static_cast<size_t>(parent_id)] -= covered;
  }
  return self;
}

bool Tracer::WriteTsv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<int64_t> self = SelfTimes();
  std::fprintf(f, "id\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%d\t%s\t%lld\t%lld\t%lld\n", i, s.parent,
                 SpanNameString(s.name), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t idx = std::min(
      samples.size() - 1,
      static_cast<size_t>(q * static_cast<double>(samples.size())));
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(idx),
                   samples.end());
  return samples[idx];
}

}  // namespace perfbench
