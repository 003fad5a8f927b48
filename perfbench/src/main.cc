// Collector pipeline benchmark.
//
// Runs the real net::CollectorServer in-process behind a loopback TCP
// listener and drives it from this process's single-threaded load
// generator (generator.h) over 4 connections. Every frame is SW-EMS at
// epsilon = 1, d = 1024, pre-encoded from a pool seeded by --seed before
// the clock starts; the collector sees only those frames.
//
// Workloads (why each exists):
//   durable_bulk  closed loop, 32 unacked 4096-report frames per
//                 connection, Beta(5,2) values. Segmented WAL (4 MB
//                 segments, each fsynced when sealed, checkpoint every
//                 1000 frames), a hot standby fed through replicate_to,
//                 acks on, no live estimation; the collector first
//                 restarts on a 2000-frame log left behind by a "crashed"
//                 collector. Loads the per-byte durable path (CRC, write,
//                 segment fsync, compaction, replication) and WAL replay
//                 inside setup_s; per-frame costs and EM stay light.
//   paced_live    open loop at 150k frames/s, 16-report frames of
//                 the taxi stand-in, no WAL or standby, acks on, live
//                 estimation every 2000 frames (warm mode, the estimator's
//                 own iteration cap). Per-frame costs (reactor rounds,
//                 decode, dedup claim, ack flush) and the EM ticks that
//                 block the reactor dominate; the durable path is
//                 bypassed, so a WAL change should leave it unchanged.
//
// Each run first sends one second of warm-up traffic that no metric counts,
// then measures for --seconds. --trace 0 prints the end-to-end metrics.
// --trace 1 does the same untraced run, repeats it with client spans on,
// replays the untraced run's frames serially through each layer's public
// calls (one span per call under a per-frame span), and prints the
// per-layer metrics; the spans are written to DIR/trace-<workload>-*.tsv.
// The last stdout line is the JSON result; the line before it carries the
// run metadata. Outputs are checked on every run (see Verify); a mismatch
// prints "correct": false. An open-loop attempt whose generator fell behind
// its schedule is discarded and repeated (at most kMaxAttempts in all); if
// no attempt keeps the schedule, the run prints "correct": false too.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--tiny] [--drop-reference-frame]
#include <malloc.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "core/sw_estimator.h"
#include "data/datasets.h"
#include "eval/incremental.h"
#include "generator.h"
#include "kernels/kernels.h"
#include "net/server.h"
#include "net/socket.h"
#include "protocol/sharded.h"
#include "serve/collector.h"
#include "serve/framing.h"
#include "serve/wal.h"
#include "trace.h"
#include "wire/wire.h"

namespace fs = std::filesystem;
using namespace numdist;

namespace perfbench {
namespace {

constexpr size_t kConnections = 4;
constexpr double kEpsilon = 1.0;
constexpr uint32_t kDomain = 1024;
constexpr uint64_t kSegmentBytes = 4'000'000;
constexpr uint64_t kCheckpointEvery = 1000;
/// Epoch of the client whose frames the crashed collector logged; distinct
/// from the live epochs 1..kConnections.
constexpr uint64_t kSetupEpoch = 1000;
/// The open-loop generator is "behind" (the attempt is invalid) when its
/// own p99 lateness against the schedule exceeds this.
constexpr double kMaxLateP99Ms = 2.0;
/// An invalid attempt is discarded and the measurement repeated, at most
/// this many attempts in all, and none started after kRetryUntilS seconds.
constexpr int kMaxAttempts = 4;
constexpr double kRetryUntilS = 60.0;

struct Workload {
  std::string name;
  size_t reports_per_frame = 0;
  DatasetId dataset = DatasetId::kBeta;
  size_t pool_frames = 0;
  GeneratorConfig gen;
  bool durable = false;              // WAL + standby + set-up log
  uint64_t estimate_every_frames = 0;
  size_t setup_log_frames = 0;
  size_t setup_reps = 1;             // set-ups per run (median reported)
  size_t idle_probes = 0;
  size_t replay_cap = 0;             // frames replayed serially when traced
};

Workload GetWorkload(const std::string& name, bool tiny) {
  Workload w;
  w.name = name;
  w.gen.warmup_s = tiny ? 0.1 : 1.0;
  if (name == "durable_bulk") {
    w.reports_per_frame = 4096;
    w.dataset = DatasetId::kBeta;
    w.pool_frames = 256;
    w.gen.closed_loop = true;
    w.gen.window = 32;
    w.durable = true;
    w.setup_log_frames = tiny ? 20 : 2000;
    w.setup_reps = tiny ? 1 : 3;
    w.idle_probes = tiny ? 5 : 50;
    w.replay_cap = tiny ? 50 : 4000;
  } else if (name == "paced_live") {
    w.reports_per_frame = 16;
    w.dataset = DatasetId::kTaxi;
    w.pool_frames = 65536;
    w.gen.closed_loop = false;
    // The offered rate is absolute. On a 4-core x86-64 host the collector
    // acks about 380k of these frames/s in a closed loop (32 unacked per
    // connection); 150k/s is the highest rate at which this single-thread
    // generator still keeps its schedule there.
    w.gen.rate_fps = tiny ? 20000.0 : 150000.0;
    w.gen.span_every = 16;
    w.estimate_every_frames = tiny ? 200 : 2000;
    w.setup_reps = tiny ? 1 : 7;
    w.idle_probes = tiny ? 5 : 200;
    w.replay_cap = tiny ? 500 : 20000;
  } else {
    throw std::runtime_error("unknown workload '" + name +
                             "' (durable_bulk | paced_live)");
  }
  return w;
}

void Must(const Status& st, const std::string& what) {
  if (!st.ok()) throw std::runtime_error(what + ": " + st.ToString());
}
template <typename T>
T Must(Result<T> r, const std::string& what) {
  if (!r.ok()) throw std::runtime_error(what + ": " + r.status().ToString());
  return std::move(r).value();
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

wire::MethodSpec Spec() {
  return Must(wire::ParseMethodSpec("sw-ems", kEpsilon, kDomain), "spec");
}

/// The estimator the collector builds for Spec() (SW-EMS at d = 1024).
SwEstimatorOptions EstimatorOptions() {
  SwEstimatorOptions o;
  o.epsilon = kEpsilon;
  o.d = kDomain;
  return o;
}

FramePool MakePool(const Workload& w, uint64_t seed) {
  const wire::MethodSpec spec = Spec();
  const ProtocolPtr protocol =
      Must(wire::MakeProtocolForSpec(spec), "protocol");
  Rng data_rng(ShardSeed(seed, 0));
  const std::vector<double> values = GenerateDataset(
      w.dataset, w.pool_frames * w.reports_per_frame, data_rng);
  FramePool pool;
  pool.connections = kConnections;
  for (size_t i = 0; i < w.pool_frames; ++i) {
    Rng rng(ShardSeed(seed, i + 1));
    auto chunk = Must(protocol->EncodePerturbBatch(
                          std::span<const double>(values).subspan(
                              i * w.reports_per_frame, w.reports_per_frame),
                          rng),
                      "perturb");
    std::string frame;
    Must(wire::EncodeReportFrame(spec, *protocol, *chunk, &frame), "encode");
    pool.frames.push_back(std::move(frame));
  }
  return pool;
}

/// Frame `seq` (1-based) of the log the crashed collector left behind.
std::string SetupFrame(const FramePool& pool, uint64_t seq) {
  std::string frame = pool.frames[(seq - 1) % pool.frames.size()];
  Must(wire::StampSequenceContext(
           &frame, wire::FrameSeq{.epoch = kSetupEpoch, .seq = seq}),
       "stamp");
  return frame;
}

serve::WalOptions DurableWalOptions() {
  serve::WalOptions o;
  o.checkpoint_every_frames = kCheckpointEvery;
  // No fsync per record: on a virtual disk shared with other machines its
  // latency swings several-fold within minutes, which swamps every other
  // cost on this path. Its own cost is measured per layer instead
  // (serve.wal_fsync_us).
  o.sync_each_record = false;
  o.segment_bytes = kSegmentBytes;
  return o;
}

void WriteSetupLog(const Workload& w, const FramePool& pool,
                   const std::string& dir) {
  serve::WalOptions o;
  o.segment_bytes = kSegmentBytes;
  serve::WalLog log = Must(serve::WalLog::Open(dir, o, {}), "setup log");
  for (uint64_t s = 1; s <= w.setup_log_frames; ++s) {
    Must(log.AppendFrame(SetupFrame(pool, s)), "setup log append");
  }
  Must(log.Sync(), "setup log sync");
}

struct TickRecord {
  int64_t at_ns = 0;
  uint64_t tick = 0;
  uint64_t frames = 0;
  size_t iterations = 0;
  std::vector<uint64_t> totals;  // traced runs only
};

/// A running server (primary or standby) and the thread serving it.
struct Served {
  std::unique_ptr<net::CollectorServer> server;
  std::thread thread;
  Status status = Status::OK();
  std::atomic<bool> done{false};

  void Start() {
    thread = std::thread([this] {
      status = server->Run();
      done.store(true, std::memory_order_release);
    });
  }
  void Join() {
    if (thread.joinable()) thread.join();
  }
  ~Served() {
    if (thread.joinable()) {
      server->RequestDrain();
      thread.join();
    }
  }
};

/// A standby the way collector_cli --standby sets one up: serves the
/// replication stream, never acks, drains when the stream ends.
std::unique_ptr<Served> StartStandby(net::Endpoint* bound) {
  net::ServerOptions o;
  o.send_acks = false;
  o.drain_on_disconnect = true;
  auto served = std::make_unique<Served>();
  served->server = Must(net::CollectorServer::Make(Spec(), o), "standby");
  *bound = Must(served->server->AddListener(
                    Must(net::ParseEndpoint("tcp:127.0.0.1:0"), "endpoint")),
                "standby listen");
  served->Start();
  return served;
}

struct Collector {
  std::unique_ptr<Served> standby;
  std::unique_ptr<Served> primary;
  net::Endpoint endpoint;
  std::vector<TickRecord> ticks;  // written by the estimate sink
};

/// Builds the collector under test; returns the set-up time (seconds from
/// the start of CollectorServer::Make to the end of AddListener).
double SetUp(const Workload& w, const std::string& work, bool trace,
             Collector* c) {
  net::ServerOptions o;
  if (w.durable) {
    const std::string wal = work + "/wal";
    fs::remove_all(wal);
    fs::copy(work + "/setup-log", wal, fs::copy_options::recursive);
    net::Endpoint standby_at;
    c->standby = StartStandby(&standby_at);
    o.wal_path = wal;
    o.wal = DurableWalOptions();
    o.replicate_to = net::EndpointName(standby_at);
  }
  if (w.estimate_every_frames > 0) {
    o.estimate_every_frames = w.estimate_every_frames;
    // Runs on the serving thread: it only appends to c->ticks, which the
    // benchmark reads after joining that thread.
    o.estimate_sink = [c, trace](const net::EstimateTick& tick) {
      TickRecord r;
      r.at_ns = NowNs();
      r.tick = tick.tick;
      r.frames = tick.frames;
      r.iterations = tick.em.iterations;
      if (trace) r.totals = tick.totals;
      c->ticks.push_back(std::move(r));
    };
  }
  const net::Endpoint listen =
      Must(net::ParseEndpoint("tcp:127.0.0.1:0"), "endpoint");
  c->primary = std::make_unique<Served>();
  const int64_t t0 = NowNs();
  c->primary->server = Must(net::CollectorServer::Make(Spec(), o), "Make");
  c->endpoint = Must(c->primary->server->AddListener(listen), "AddListener");
  const int64_t t1 = NowNs();
  return static_cast<double>(t1 - t0) / 1e9;
}

/// Stops a collector that never served: dropping the primary closes its
/// replication stream, which drains the standby.
void TearDown(Collector* c) {
  c->primary.reset();
  if (c->standby) c->standby->Join();
  c->standby.reset();
}

struct RunOutcome {
  std::vector<double> setup_s;
  GeneratorResult gen;
  Status run_status = Status::OK();
  net::ServerStats stats;
  serve::WalReplayStats recovery;
  std::string sketch;
  bool has_standby = false;
  Status standby_status = Status::OK();
  std::string standby_sketch;
  std::vector<double> distribution;
  Status reconstruct_status = Status::OK();
  double drain_ms = 0.0;
  double estimate_ms = 0.0;
  double peak_rss_mb = 0.0;
  std::vector<TickRecord> ticks;
};

/// Starts a new peak-RSS window (Linux resets VmHWM to the current RSS);
/// false where the kernel does not allow it.
bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

/// Peak RSS since ResetPeakRss when `windowed`, else over the process's
/// whole life.
double PeakRssMb(bool windowed) {
  if (windowed) {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f != nullptr) {
      char line[256];
      double kib = -1.0;
      while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
      }
      std::fclose(f);
      if (kib >= 0) return kib / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

RunOutcome RunOnce(const Workload& w, const FramePool& pool,
                   const std::string& work, bool trace, Tracer* tracer) {
  RunOutcome out;
  // A discarded earlier attempt (see Main) must not set this one's peak.
  const bool rss_windowed = ResetPeakRss();
  Collector c;
  for (size_t rep = 0; rep < w.setup_reps; ++rep) {
    if (rep > 0) TearDown(&c);
    c.ticks.clear();
    out.setup_s.push_back(SetUp(w, work, trace, &c));
  }
  out.recovery = c.primary->server->wal_recovery();
  c.primary->Start();
  const std::unique_ptr<Generator> gen =
      Must(Generator::Make(c.endpoint, &pool, w.gen, tracer), "dial");
  gen->Run(c.primary->done);
  if (trace) gen->IdleProbes(w.idle_probes, c.primary->done);
  out.peak_rss_mb = PeakRssMb(rss_windowed);

  // estimate_ms: drain (including the final compaction) plus
  // Reconstruct, as an operator ending a collection round sees them.
  const int64_t drain_at = NowNs();
  c.primary->server->RequestDrain();
  gen->Close();
  c.primary->Join();
  out.drain_ms = Ms(NowNs() - drain_at);
  const Result<MethodOutput> estimate = c.primary->server->Reconstruct();
  out.estimate_ms = Ms(NowNs() - drain_at);

  out.gen = gen->TakeResult();
  out.run_status = c.primary->status;
  out.stats = c.primary->server->stats();
  for (const TickRecord& tick : c.ticks) {
    tracer->Record(SpanName::kEstimateTick, -1, tick.at_ns, tick.at_ns);
  }
  out.ticks = std::move(c.ticks);
  if (estimate.ok()) {
    out.distribution = estimate->distribution;
  } else {
    out.reconstruct_status = estimate.status();
  }
  const Result<std::string> sketch = c.primary->server->EncodeSketch();
  if (sketch.ok()) out.sketch = *sketch;
  if (c.standby) {
    out.has_standby = true;
    c.primary.reset();  // closes the replication stream if Run failed
    c.standby->Join();
    out.standby_status = c.standby->status;
    const Result<std::string> standby_sketch =
        c.standby->server->EncodeSketch();
    if (standby_sketch.ok()) out.standby_sketch = *standby_sketch;
  }
  return out;
}

/// The session's per-output-bucket SW report counts.
std::vector<uint64_t> Counts(const serve::CollectorSession& session) {
  const AccumulatorState state = session.ExportState();
  std::vector<uint64_t> counts;
  for (int64_t c : state.tables.at(0).counts) {
    counts.push_back(static_cast<uint64_t>(c));
  }
  return counts;
}

struct Verdict {
  std::vector<std::string> failures;
  std::vector<uint64_t> reference_counts;
};

/// The correctness gate: the drained sketch must be byte-identical to a
/// serial CollectorSession fed the same frames, the standby's sketch must
/// equal the primary's, the final estimate must equal SwEstimator::
/// Reconstruct on the reference counts, and live estimation must have
/// ticked exactly as its cadence prescribes.
Verdict Verify(const Workload& w, const FramePool& pool,
               const RunOutcome& run, const SwEstimator& estimator,
               bool drop_reference_frame) {
  Verdict v;
  auto fail = [&v](std::string what) { v.failures.push_back(std::move(what)); };
  if (!run.run_status.ok()) fail("Run: " + run.run_status.ToString());
  if (!run.stats.first_error.ok()) {
    fail("collector error: " + run.stats.first_error.ToString());
  }
  if (!run.gen.first_error.ok()) {
    fail("client lost a connection: " + run.gen.first_error.ToString());
  }
  if (run.recovery.frames != w.setup_log_frames) {
    fail("WAL recovery replayed " + std::to_string(run.recovery.frames) +
         " frames, expected " + std::to_string(w.setup_log_frames));
  }
  serve::CollectorSession ref =
      Must(serve::CollectorSession::Make(Spec()), "reference session");
  for (uint64_t s = 1; s <= w.setup_log_frames; ++s) {
    Must(ref.HandleFrame(SetupFrame(pool, s)), "reference setup frame");
  }
  std::string frame;
  for (size_t i = 0; i < run.gen.frames.size(); ++i) {
    if (drop_reference_frame && i == 0) continue;
    pool.Stamped(run.gen.frames[i].conn, run.gen.frames[i].seq, &frame);
    Must(ref.HandleFrame(frame), "reference frame");
  }
  const std::string ref_sketch = Must(ref.EncodeSketch(), "reference sketch");
  if (run.sketch != ref_sketch) {
    fail("drained sketch differs from the serial reference");
  }
  if (run.has_standby) {
    if (!run.standby_status.ok()) {
      fail("standby Run: " + run.standby_status.ToString());
    }
    if (run.standby_sketch != run.sketch) {
      fail("standby sketch differs from the primary's");
    }
  }
  v.reference_counts = Counts(ref);
  const Result<EmResult> em = estimator.Reconstruct(v.reference_counts);
  if (!run.reconstruct_status.ok()) {
    fail("Reconstruct: " + run.reconstruct_status.ToString());
  } else if (!em.ok() || em->estimate != run.distribution) {
    fail("final estimate differs from SwEstimator::Reconstruct");
  }
  if (w.estimate_every_frames > 0) {
    // Cadence: a tick fires after the first batch that brings the
    // absorbed count a full cadence past the previous tick, and every
    // batch is followed by that check, so less than one cadence of frames
    // may trail the last tick.
    const uint64_t absorbed = run.stats.frames_absorbed;
    uint64_t prev = 0;
    bool ok = run.ticks.size() == run.stats.estimate_ticks &&
              absorbed / w.estimate_every_frames >= 1 && !run.ticks.empty();
    for (size_t i = 0; ok && i < run.ticks.size(); ++i) {
      ok = run.ticks[i].tick == i + 1 &&
           run.ticks[i].frames >= prev + w.estimate_every_frames &&
           run.ticks[i].frames <= absorbed;
      prev = run.ticks[i].frames;
    }
    if (!ok || absorbed - prev >= w.estimate_every_frames) {
      fail("live estimation fired " + std::to_string(run.ticks.size()) +
           " ticks over " + std::to_string(absorbed) +
           " frames, off its cadence of " +
           std::to_string(w.estimate_every_frames));
    }
  } else if (run.stats.estimate_ticks != 0) {
    fail("live estimation ticked with no cadence configured");
  }
  return v;
}

uint64_t FailedFrames(const RunOutcome& run) {
  uint64_t failed = run.gen.bad_acks;
  for (const SentFrame& f : run.gen.frames) {
    if (f.acked_ns < 0) ++failed;
  }
  return failed;
}

/// Frames of the measured period (warm-up frames excluded).
std::vector<const SentFrame*> Measured(const RunOutcome& run) {
  std::vector<const SentFrame*> frames;
  for (const SentFrame& f : run.gen.frames) {
    if (f.start_ns >= run.gen.first_ns) frames.push_back(&f);
  }
  return frames;
}

/// Serve wall time: first measured frame due/queued to its last ack.
int64_t ServeWallNs(const RunOutcome& run) {
  int64_t last = run.gen.first_ns;
  for (const SentFrame* f : Measured(run)) last = std::max(last, f->acked_ns);
  return last - run.gen.first_ns;
}

double IngestRps(const Workload& w, const RunOutcome& run) {
  uint64_t acked = 0;
  for (const SentFrame* f : Measured(run)) acked += f->acked_ns >= 0;
  const double secs = static_cast<double>(ServeWallNs(run)) / 1e9;
  return secs > 0 ? static_cast<double>(acked * w.reports_per_frame) / secs
                  : 0.0;
}

std::vector<double> AckLatenciesMs(const RunOutcome& run) {
  std::vector<double> ms;
  for (const SentFrame* f : Measured(run)) {
    if (f->acked_ns >= 0) ms.push_back(Ms(f->acked_ns - f->start_ns));
  }
  return ms;
}

struct ReplayResult {
  Tracer tracer{true};
  size_t frames = 0;
  uint64_t frame_bytes = 0;
  std::vector<double> merge_encode_us;
  std::vector<double> wal_replay_ms;
  std::vector<double> reconstruct_ms;
  size_t em_iterations = 0;
  std::vector<double> tick_ms;
  std::vector<double> tick_iterations;
  std::vector<double> model_build_ms;
};

/// Keeps the compiler from dropping a timed call whose result is unused.
template <typename T>
void KeepResult(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

template <typename Fn>
double TimeMs(Fn&& fn) {
  const int64_t t0 = NowNs();
  fn();
  return Ms(NowNs() - t0);
}

/// Replays the untraced run's frames serially through each layer's public
/// calls, in pipeline order, one span per call under a per-frame span.
ReplayResult Replay(const Workload& w, const FramePool& pool,
                    const RunOutcome& run, const RunOutcome& traced,
                    const std::vector<uint64_t>& final_counts,
                    const std::string& work) {
  ReplayResult r;
  Tracer& t = r.tracer;
  const wire::MethodSpec spec = Spec();
  const ProtocolPtr protocol =
      Must(wire::MakeProtocolForSpec(spec), "protocol");
  serve::SequenceTracker tracker;
  serve::CollectorSession session =
      Must(serve::CollectorSession::Make(spec), "replay session");
  const std::string wal_dir = work + "/replay-wal";
  fs::remove_all(wal_dir);
  serve::WalOptions wal_options;
  wal_options.segment_bytes = kSegmentBytes;
  serve::WalLog log =
      Must(serve::WalLog::Open(wal_dir, wal_options, {}), "replay WAL");
  net::Endpoint standby_at;
  std::unique_ptr<Served> standby = StartStandby(&standby_at);
  net::Fd replica = Must(net::Dial(standby_at), "dial standby");

  auto estimator = std::make_shared<const SwEstimator>(
      Must(SwEstimator::Make(EstimatorOptions()), "estimator"));
  // Without live estimation (durable_bulk) the tick replay uses the
  // cumulative totals at each checkpoint of this replay instead.
  std::vector<std::vector<uint64_t>> tick_totals;
  for (const TickRecord& tick : traced.ticks) {
    tick_totals.push_back(tick.totals);
  }
  const bool ticks_from_checkpoints = tick_totals.empty();

  r.frames = std::min(run.gen.frames.size(), w.replay_cap);
  std::string frame;
  std::string framed;
  for (size_t i = 0; i < r.frames; ++i) {
    const SentFrame& f = run.gen.frames[i];
    pool.Stamped(f.conn, f.seq, &frame);
    r.frame_bytes += frame.size();
    framed.clear();
    serve::AppendFramePrefix(frame.size(), &framed);
    framed.append(frame);

    const int32_t root = t.Begin(SpanName::kReplayFrame);
    int32_t s = t.Begin(SpanName::kCommonCrc, root);
    KeepResult(Crc32c(frame));
    t.End(s);
    s = t.Begin(SpanName::kWireDecode, root);
    const Result<wire::FrameInfo> info = wire::PeekFrame(frame);
    const bool decoded =
        info.ok() &&
        wire::DecodeReportFrame(spec, *protocol, wire::FrameBytes(frame)).ok();
    t.End(s);
    s = t.Begin(SpanName::kServeClaim, root);
    const bool claimed = tracker.Claim(f.conn + 1u, f.seq);
    t.End(s);
    s = t.Begin(SpanName::kServeHandle, root);
    const Status handled = session.HandleFrame(frame);
    t.End(s);
    s = t.Begin(SpanName::kServeWalAppend, root);
    const Status appended = log.AppendFrame(frame);
    t.End(s);
    s = t.Begin(SpanName::kServeWalSync, root);
    const Status synced = log.Sync();
    t.End(s);
    s = t.Begin(SpanName::kNetReplicaWrite, root);
    const Status written = net::WriteAll(replica.get(), framed);
    t.End(s);
    if ((i + 1) % kCheckpointEvery == 0) {
      const std::vector<std::string> sketches =
          Must(session.EncodeSketches(), "checkpoint sketches");
      s = t.Begin(SpanName::kServeWalCompact, root);
      const Status compacted = log.Compact(sketches, tracker.Export());
      t.End(s);
      Must(compacted, "replay compact");
      if (ticks_from_checkpoints) tick_totals.push_back(Counts(session));
    }
    t.End(root);
    if (!decoded || !claimed) throw std::runtime_error("replay decode/claim");
    Must(handled, "replay HandleFrame");
    Must(appended, "replay append");
    Must(synced, "replay sync");
    Must(written, "replica write");
  }
  replica.reset();
  standby->Join();
  Must(standby->status, "replay standby");

  for (int rep = 0; rep < 5; ++rep) {
    serve::CollectorSession merged =
        Must(serve::CollectorSession::Make(spec), "merge session");
    r.merge_encode_us.push_back(1e3 * TimeMs([&] {
      Must(merged.AbsorbSession(session), "AbsorbSession");
      Must(merged.EncodeSketches(), "EncodeSketches");
    }));
  }

  // The set-up log (durable_bulk) or this replay's own log (paced_live,
  // which has no set-up log), segment by segment, into a fresh session.
  const std::string replay_dir =
      w.durable ? work + "/setup-log" : wal_dir;
  std::vector<std::string> segments;
  for (const auto& entry : fs::directory_iterator(replay_dir)) {
    if (entry.path().extension() == ".ndwl") {
      segments.push_back(entry.path().string());
    }
  }
  std::sort(segments.begin(), segments.end());
  for (int rep = 0; rep < 3; ++rep) {
    serve::CollectorSession fresh =
        Must(serve::CollectorSession::Make(spec), "replay target");
    serve::WalConsumer consumer;
    consumer.on_frame = [&fresh](std::string_view fr) {
      return fresh.HandleFrame(fr);
    };
    consumer.on_checkpoint = [&fresh](const std::vector<std::string>& sk) {
      return fresh.ResetToSketches(sk);
    };
    consumer.on_seq_checkpoint =
        [&fresh](const std::vector<serve::WalSeqEntry>& entries) {
          fresh.sequence_tracker()->Restore(entries);
          return Status::OK();
        };
    r.wal_replay_ms.push_back(TimeMs([&] {
      for (const std::string& seg : segments) {
        Must(serve::ReplayWal(seg, consumer), "ReplayWal");
      }
    }));
  }

  for (int rep = 0; rep < 3; ++rep) {
    r.model_build_ms.push_back(
        TimeMs([] { Must(SwEstimator::Make(EstimatorOptions()), "model"); }));
  }
  for (int rep = 0; rep < 3; ++rep) {
    Result<EmResult> em = Status::Internal("not run");
    r.reconstruct_ms.push_back(
        TimeMs([&] { em = estimator->Reconstruct(final_counts); }));
    r.em_iterations = Must(std::move(em), "Reconstruct").iterations;
  }

  IncrementalOptions inc_options;  // warm, the estimator's own cap
  IncrementalReconstructor inc =
      Must(IncrementalReconstructor::Make(estimator, inc_options), "inc");
  for (const std::vector<uint64_t>& totals : tick_totals) {
    uint64_t n = 0;
    for (uint64_t c : totals) n += c;
    Result<EmResult> em = Status::Internal("not run");
    r.tick_ms.push_back(
        TimeMs([&] { em = inc.UpdateFromTotals(totals, n); }));
    r.tick_iterations.push_back(
        static_cast<double>(Must(std::move(em), "tick").iterations));
  }
  return r;
}

const char* FilesystemName(const std::string& path) {
  struct statfs sfs {};
  if (statfs(path.c_str(), &sfs) != 0) return "unknown";
  switch (static_cast<unsigned long>(sfs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: return "other";
  }
}

/// Builds one flat JSON object, fields in insertion order.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return Raw(key, buf);
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char ch : value) {
      if (ch == '"' || ch == '\\') quoted += '\\';
      quoted += static_cast<unsigned char>(ch) < 0x20 ? ' ' : ch;
    }
    return Raw(key, quoted + "\"");
  }
  JsonObject& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  /// A metric as {"value": v, "unit": u}.
  JsonObject& Metric(const std::string& key, double value,
                     const std::string& unit) {
    return Raw(key, JsonObject().Num("value", value).Str("unit", unit).str());
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/run";
  bool tiny = false;
  bool drop_reference_frame = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = value();
    } else if (arg == "--seed") {
      a.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      a.seconds = std::stod(value());
    } else if (arg == "--trace") {
      a.trace = std::stoi(value()) != 0;
    } else if (arg == "--work-dir") {
      a.work_dir = value();
    } else if (arg == "--tiny") {
      a.tiny = true;
    } else if (arg == "--drop-reference-frame") {
      a.drop_reference_frame = true;
    } else {
      throw std::runtime_error("unknown argument '" + arg + "'");
    }
  }
  if (a.workload.empty()) throw std::runtime_error("--workload is required");
  if (!(a.seconds > 0)) throw std::runtime_error("--seconds must be > 0");
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Workload w = GetWorkload(args.workload, args.tiny);
  w.gen.seconds = args.seconds;

  const std::string work = fs::absolute(args.work_dir).string() + "/" +
                           w.name + "-" + std::to_string(getpid());
  fs::remove_all(work);
  fs::create_directories(work);
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } cleanup{work};

  const FramePool pool = MakePool(w, args.seed);
  if (w.durable) WriteSetupLog(w, pool, work + "/setup-log");
  const SwEstimator estimator =
      Must(SwEstimator::Make(EstimatorOptions()), "estimator");

  // An open-loop attempt whose generator fell behind its schedule measured
  // the host, not the collector: it is discarded and repeated. Every
  // attempt's outputs are still checked and its frames still counted, so
  // a discarded attempt cannot hide a wrong result or a failed frame.
  const int64_t started_ns = NowNs();
  Tracer off(false);
  RunOutcome run;
  Verdict verdict;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double late_p99 = 0.0;
  bool generator_valid = false;
  int invalid_attempts = 0;
  std::vector<std::string> discarded_failures;
  for (;;) {
    run = RunOnce(w, pool, work, false, &off);
    verdict = Verify(w, pool, run, estimator, args.drop_reference_frame);
    attempted += run.gen.frames.size();
    failed += FailedFrames(run);
    late_p99 = Quantile(run.gen.late_ms, 0.99);
    // At the tiny self-test size a single scheduling hiccup of the host
    // moves the p99 of a few thousand frames, so only full runs are judged.
    generator_valid =
        w.gen.closed_loop || args.tiny || late_p99 <= kMaxLateP99Ms;
    if (generator_valid) break;
    const std::string why =
        "invalid run: the generator fell behind its schedule (late p99 " +
        std::to_string(late_p99) + " ms)";
    const double elapsed_s = static_cast<double>(NowNs() - started_ns) / 1e9;
    if (invalid_attempts + 1 >= kMaxAttempts || elapsed_s > kRetryUntilS) {
      verdict.failures.push_back(why);
      break;
    }
    ++invalid_attempts;
    std::fprintf(stderr, "perfbench: attempt %d discarded, %s\n",
                 invalid_attempts, why.c_str());
    for (const std::string& f : verdict.failures) {
      discarded_failures.push_back("discarded attempt " +
                                   std::to_string(invalid_attempts) + ": " + f);
    }
    // Freed and handed back to the system before the next attempt, so
    // peak_rss_mb measures one attempt, not two.
    run = RunOutcome();
    malloc_trim(0);
  }
  verdict.failures.insert(verdict.failures.end(), discarded_failures.begin(),
                          discarded_failures.end());

  const std::vector<double> latencies = AckLatenciesMs(run);

  JsonObject metrics;
  // Sample counts behind the per-layer medians (traced runs only).
  size_t replayed_frames = 0;
  size_t idle_rtt_samples = 0;
  size_t tick_samples = 0;
  if (!args.trace) {
    metrics.Metric("ingest_rps", IngestRps(w, run), "1/s");
    metrics.Metric("ack_p50_ms", Quantile(latencies, 0.5), "ms");
    metrics.Metric("setup_s", Median(run.setup_s), "s");
    metrics.Metric("peak_rss_mb", run.peak_rss_mb, "MB");
  } else {
    Tracer client(true);
    const RunOutcome traced = RunOnce(w, pool, work, true, &client);
    const Verdict traced_verdict = Verify(w, pool, traced, estimator, false);
    for (const std::string& f : traced_verdict.failures) {
      verdict.failures.push_back("traced run: " + f);
    }
    attempted += traced.gen.frames.size();
    failed += FailedFrames(traced);
    ReplayResult replay =
        Replay(w, pool, run, traced, verdict.reference_counts, work);
    replayed_frames = replay.frames;
    idle_rtt_samples = traced.gen.idle_rtt_us.size();
    tick_samples = replay.tick_ms.size();

    // Stage self-times summed over the replayed frames, scaled to every
    // frame of the untraced run, over that run's serve wall time.
    const std::vector<Span>& spans = replay.tracer.spans();
    const std::vector<int64_t> self = replay.tracer.SelfTimes();
    std::vector<std::vector<double>> by_name(
        static_cast<size_t>(SpanName::kCount));
    // Only the stages this workload's collector runs count towards the
    // share, and only calls that do not repeat work another span already
    // covers: HandleFrame decodes and claims internally, and AppendFrame
    // computes the CRC.
    const auto counted = [&w](SpanName name) {
      switch (name) {
        case SpanName::kServeHandle:
          return true;
        case SpanName::kServeWalAppend:
        case SpanName::kServeWalSync:
        case SpanName::kNetReplicaWrite:
        case SpanName::kServeWalCompact:
          return w.durable;
        default:
          return false;
      }
    };
    int64_t stage_ns = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
      by_name[static_cast<size_t>(spans[i].name)].push_back(
          static_cast<double>(spans[i].end_ns - spans[i].start_ns));
      if (spans[i].parent >= 0 && counted(spans[i].name)) stage_ns += self[i];
    }
    auto median_of = [&](SpanName name, double scale) {
      return Median(by_name[static_cast<size_t>(name)]) / scale;
    };
    double crc_ns = 0;
    for (double ns : by_name[static_cast<size_t>(SpanName::kCommonCrc)]) {
      crc_ns += ns;
    }
    const double scale = replay.frames > 0
                             ? static_cast<double>(Measured(run).size()) /
                                   static_cast<double>(replay.frames)
                             : 0.0;
    const double rps = IngestRps(w, run);

    const net::ServerStats& st = run.stats;
    const auto count = [](uint64_t n) { return static_cast<double>(n); };
    metrics.Metric("net.idle_rtt_us", Median(traced.gen.idle_rtt_us), "us")
        .Metric("net.drain_ms", run.drain_ms, "ms")
        .Metric("net.replica_write_us",
                median_of(SpanName::kNetReplicaWrite, 1e3), "us")
        .Metric("net.bytes_received", count(st.bytes_received), "bytes")
        .Metric("net.pauses", count(st.pauses), "count")
        .Metric("net.acks_queued", count(st.acks_queued), "count")
        .Metric("net.frames_replicated", count(st.frames_replicated), "count")
        .Metric("net.duplicates", count(st.duplicates), "count")
        .Metric("net.connection_errors", count(st.connection_errors), "count")
        .Metric("net.estimate_ticks", count(st.estimate_ticks), "count")
        .Metric("wire.decode_us", median_of(SpanName::kWireDecode, 1e3), "us")
        .Metric("serve.claim_ns", median_of(SpanName::kServeClaim, 1.0), "ns")
        .Metric("serve.handle_frame_us",
                median_of(SpanName::kServeHandle, 1e3), "us")
        .Metric("serve.wal_append_us",
                median_of(SpanName::kServeWalAppend, 1e3), "us")
        .Metric("serve.wal_fsync_us", median_of(SpanName::kServeWalSync, 1e3),
                "us")
        .Metric("serve.wal_compact_ms",
                median_of(SpanName::kServeWalCompact, 1e6), "ms")
        .Metric("serve.wal_replay_ms", Median(replay.wal_replay_ms), "ms")
        .Metric("serve.merge_encode_us", Median(replay.merge_encode_us), "us")
        .Metric("common.crc32c_ns_per_kib",
                crc_ns / (static_cast<double>(replay.frame_bytes) / 1024.0),
                "ns/KiB")
        .Metric("core.model_build_ms", Median(replay.model_build_ms), "ms")
        .Metric("core.reconstruct_ms", Median(replay.reconstruct_ms), "ms")
        .Metric("core.em_iterations", count(replay.em_iterations), "count")
        .Metric("eval.tick_ms", Median(replay.tick_ms), "ms")
        .Metric("eval.tick_iterations", Median(replay.tick_iterations),
                "count")
        .Metric("client.ack_p99_ms", Quantile(AckLatenciesMs(run), 0.99),
                "ms")
        .Metric("client.write_blocked_ms", traced.gen.write_blocked_ms, "ms")
        .Metric("client.late_p99_ms", Quantile(traced.gen.late_ms, 0.99),
                "ms")
        .Metric("trace.stage_share",
                static_cast<double>(stage_ns) * scale /
                    static_cast<double>(ServeWallNs(run)),
                "ratio")
        .Metric("trace.overhead_frac",
                rps > 0 ? 1.0 - IngestRps(w, traced) / rps : 0.0, "ratio");

    const std::string trace_base =
        fs::absolute(args.work_dir).string() + "/trace-" + w.name;
    if (!client.WriteTsv(trace_base + "-client.tsv") ||
        !replay.tracer.WriteTsv(trace_base + "-replay.tsv")) {
      throw std::runtime_error("cannot write the span files");
    }
  }

  for (const std::string& f : verdict.failures) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
  }
  JsonObject meta;
  meta.Str("workload", w.name)
      .Num("seed", static_cast<double>(args.seed))
      .Num("seconds", args.seconds)
      .Num("warmup_s", w.gen.warmup_s)
      .Bool("trace", args.trace)
      .Num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Str("isa", kernels::IsaName(kernels::ActiveIsa()))
      .Str("wal_fs", FilesystemName(work))
      .Str("traffic", "loopback only (127.0.0.1)")
      .Num("connections", kConnections)
      .Str("loop", w.gen.closed_loop ? "closed" : "open")
      .Num("offered_rate_fps", w.gen.closed_loop ? 0.0 : w.gen.rate_fps)
      .Num("window", w.gen.closed_loop ? static_cast<double>(w.gen.window) : 0)
      .Num("reports_per_frame", static_cast<double>(w.reports_per_frame))
      .Num("frames_attempted", static_cast<double>(run.gen.frames.size()))
      .Num("frames_acked", static_cast<double>(run.gen.acked))
      .Num("latency_samples", static_cast<double>(latencies.size()))
      .Num("setup_samples", static_cast<double>(run.setup_s.size()))
      .Num("setup_log_frames", static_cast<double>(w.setup_log_frames))
      .Num("failed_frac",
           attempted > 0 ? static_cast<double>(failed) / attempted : 0.0)
      .Num("bad_acks", static_cast<double>(run.gen.bad_acks))
      .Num("connection_errors",
           static_cast<double>(run.stats.connection_errors))
      .Str("first_error", run.stats.first_error.ToString())
      .Num("client_dead_connections",
           static_cast<double>(run.gen.dead_connections))
      .Str("client_error", run.gen.first_error.ToString())
      .Str("run_status", run.run_status.ToString())
      .Num("late_p99_ms", late_p99)
      .Bool("generator_valid", generator_valid)
      .Num("invalid_attempts_discarded", invalid_attempts)
      .Num("estimate_ticks", static_cast<double>(run.stats.estimate_ticks))
      .Num("estimate_ms", run.estimate_ms)
      .Num("replayed_frames", static_cast<double>(replayed_frames))
      .Num("idle_rtt_samples", static_cast<double>(idle_rtt_samples))
      .Num("tick_samples", static_cast<double>(tick_samples));
  std::printf("%s\n", JsonObject().Raw("meta", meta.str()).str().c_str());
  std::printf("%s\n", JsonObject()
                          .Bool("correct", verdict.failures.empty())
                          .Num("attempted", static_cast<double>(attempted))
                          .Num("failed", static_cast<double>(failed))
                          .Raw("metrics", metrics.str())
                          .str()
                          .c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
