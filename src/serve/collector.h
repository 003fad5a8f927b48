// The cross-process collector: one CollectorSession per OS process, each
// absorbing a stream of wire frames into Protocol accumulators.
//
// Deployment shape (mirroring the paper's aggregator, scaled out):
//
//   client fleet ──report frames──▶ collector 1 ─┐
//   client fleet ──report frames──▶ collector 2 ─┤─sketch frames─▶ coordinator
//   client fleet ──report frames──▶ collector N ─┘                 (merge +
//                                                                 reconstruct)
//
// Every collector and the coordinator are configured with the same
// MethodSpec; frames carrying any other spec are rejected before their
// payload is touched. Because accumulator state is exact integers and
// merging is associative, the coordinator's estimate is bit-identical to a
// single-process sharded run over the same report chunks — the invariant
// tests/wire_process_test.cc asserts across real child processes. Since
// sketch-frame absorption is the same path, coordinators compose into a
// merge TREE: any shape (flat, binary, lopsided) over the same shard set
// produces a byte-identical root sketch (tests/merge_tree_test.cc).
//
// Multi-tenancy: frames carrying a tenant context (wire::kFlagTenantContext)
// are routed to per-tenant accumulators inside the same session, with
// per-tenant report/epsilon budgets enforced by a TenantLedger shared
// across every session of one process (so the event-loop server's parallel
// sub-sessions enforce one global budget). An over-budget frame is a typed
// FailedPrecondition rejection that leaves every accumulator untouched.
//
// Durability: OpenWal replays a write-ahead log (serve/wal.h) into the
// session and hands the log back to its owner, net::CollectorServer, which
// appends every accepted frame; a collector killed at any byte offset
// restarts with the exact pre-crash state.
//
// net::CollectorServer serves sessions over sockets and byte streams
// (tools/collector_cli's stdin/--in mode is one stream on that server);
// tools/report_client generates deterministic client load against it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "serve/wal.h"
#include "wire/wire.h"

namespace numdist::serve {

/// Per-tenant admission caps. Zero means unlimited on that axis.
struct TenantBudget {
  /// Most reports this tenant may contribute (report frames + merged
  /// sketch frames both count).
  uint64_t max_reports = 0;
  /// Privacy-odometer cap: the tenant's cumulative epsilon spend —
  /// reports × the session epsilon (every frame of one session carries
  /// the same spec, so per-report spend is constant) — may not exceed
  /// this.
  double max_epsilon = 0.0;
};

/// \brief Thread-safe per-tenant budget accounting, shared across every
/// CollectorSession of one collector process.
///
/// The event-loop server absorbs frames in parallel into per-slot
/// sub-sessions; sharing one ledger is what makes the budget a single
/// global cap instead of one cap per slot. Charges are reservations: a
/// frame is charged before it is absorbed and refunded if absorption
/// fails, so the spend always equals the reports actually aggregated.
class TenantLedger {
 public:
  void SetBudget(uint32_t tenant, TenantBudget budget);

  /// Reserves `num_reports` for `tenant` at `epsilon` per report. Typed
  /// FailedPrecondition when either cap would be exceeded; the spend is
  /// unchanged on rejection.
  Status Charge(uint32_t tenant, uint64_t num_reports, double epsilon);
  /// Releases a reservation whose absorb failed.
  void Refund(uint32_t tenant, uint64_t num_reports);

  uint64_t spent_reports(uint32_t tenant) const;
  /// Zeroes every tenant's spend, keeping budgets (checkpoint restore).
  void ResetSpend();
  /// Overwrites one tenant's spend (checkpoint restore).
  void SetSpent(uint32_t tenant, uint64_t num_reports);

 private:
  struct Entry {
    TenantBudget budget;
    uint64_t spent = 0;
  };
  mutable std::mutex mu_;
  std::map<uint32_t, Entry> entries_;
};

/// \brief Exactly-once window over (epoch, seq) frame ids. Single-threaded:
/// each session owns its own, and every call runs serially — on the
/// event-loop server's reactor thread (which claims for every executor
/// slot) or inside a WAL replay.
///
/// Per epoch the window is a floor (every seq <= floor claimed) plus a
/// sparse set above it. Claim and Release touch only the sparse set;
/// Advance folds the contiguous run above a floor into it. A failed
/// absorb releases its claim before the next Advance, so a release never
/// lands below a floor.
class SequenceTracker {
 public:
  /// Claims (epoch, seq): true when first seen (the caller absorbs the
  /// frame), false when already claimed (the frame is a duplicate re-send
  /// — skip it, but ack it again).
  bool Claim(uint64_t epoch, uint64_t seq);
  /// Whether (epoch, seq) is claimed now.
  bool Claimed(uint64_t epoch, uint64_t seq) const;
  /// Rolls back a claim whose absorb failed, so the client's re-send is
  /// accepted. Only valid before the Advance that follows the claim.
  void Release(uint64_t epoch, uint64_t seq);
  /// Folds the windows claimed into since the last Advance: the sparse
  /// sets then hold only the seqs above a gap.
  void Advance();
  /// Compressed snapshot (every floor advanced through its contiguous
  /// sparse run) for WAL checkpointing; empty when nothing was ever
  /// claimed.
  std::vector<WalSeqEntry> Export();
  /// RESETS the window to a checkpointed snapshot.
  void Restore(const std::vector<WalSeqEntry>& entries);

 private:
  struct Window {
    uint64_t floor = 0;
    std::set<uint64_t> sparse;
  };
  static void Fold(Window* window);

  std::map<uint64_t, Window> windows_;
  /// Epochs whose floor + 1 was claimed since the last Advance: the only
  /// windows an Advance can fold.
  std::vector<uint64_t> foldable_;
};

/// \brief One collector (or coordinator) process's aggregation state.
class CollectorSession {
 public:
  /// Builds the protocol the spec describes (for SW, the d x d~
  /// transition model) and an empty session over it. Build it once per
  /// process: further sessions for the same spec come from MakeEmptyLike.
  static Result<CollectorSession> Make(const wire::MethodSpec& spec);

  /// An empty session over this session's protocol: the same spec and
  /// the same immutable protocol object (shared, not rebuilt), with a
  /// fresh accumulator, its own ledger and its own dedup window. Cannot
  /// fail. Protocols are const after construction, so sessions that share
  /// one may absorb concurrently — the server's per-slot sub-sessions and
  /// its checkpoint scratch session are made this way.
  CollectorSession MakeEmptyLike() const;

  const wire::MethodSpec& spec() const { return spec_; }
  /// The protocol this session encodes, decodes and reconstructs with.
  const std::shared_ptr<const Protocol>& protocol() const {
    return protocol_;
  }
  /// Reports absorbed so far (report frames + merged sketch frames),
  /// across the default and every tenant accumulator.
  uint64_t num_reports() const;

  /// Folds one wire frame in: report frames are decoded and absorbed,
  /// sketch frames are decoded and merged — each into the accumulator of
  /// the frame's tenant context (the default accumulator when untagged).
  /// Snapshot, ack, malformed, and over-budget frames are typed errors; a
  /// failed frame leaves every accumulator, the ledger, and the dedup
  /// window untouched. A sequenced frame whose (epoch, seq) was already
  /// claimed is a DUPLICATE: skipped without error.
  /// It runs ClaimFrame, AbsorbFrame, then ReleaseClaim on failure and
  /// SequenceTracker::Advance. The server runs the same steps over a
  /// batch, absorbing on per-slot sub-sessions that never claim.
  Status HandleFrame(std::span<const uint8_t> frame);
  Status HandleFrame(std::string_view frame);

  /// Claim step (serial): peeks the header into `*info` and claims its
  /// (epoch, seq). True = absorb the frame (always, when unsequenced),
  /// false = a duplicate. Ack frames and malformed headers are typed
  /// errors that claim nothing.
  Result<bool> ClaimFrame(std::span<const uint8_t> frame,
                          wire::FrameInfo* info);
  /// Absorb step, the only one sessions may run concurrently: decodes,
  /// charges and absorbs a claimed frame. A failure leaves accumulators
  /// and ledger untouched.
  Status AbsorbFrame(const wire::FrameInfo& info,
                     std::span<const uint8_t> frame);
  /// Release step (serial): reopens the claim of a frame whose absorb
  /// failed, before the window's next Advance.
  void ReleaseClaim(const wire::FrameInfo& info);

  /// This session's TOTAL aggregate (default + all tenants merged) as one
  /// untagged wire sketch frame (what a collector ships to a coordinator
  /// when per-tenant separation is not needed downstream).
  Result<std::string> EncodeSketch() const;

  /// The session's full state as one sketch frame per non-empty
  /// accumulator: the default tenant's untagged frame first, then one
  /// tenant-tagged frame per tenant in ascending id order. This is the
  /// lossless export — shipping these upstream preserves per-tenant
  /// routing, and it is the WAL's checkpoint currency.
  Result<std::vector<std::string>> EncodeSketches() const;

  /// Exact-integer snapshot of the aggregate (protocol.h). With tenants
  /// in play this is the MERGED total state; ExportTenantState reads one
  /// tenant. Read-only: live estimation sums these across sessions
  /// without touching the aggregate, so periodic estimates can never
  /// perturb the final sketch.
  AccumulatorState ExportState() const;
  /// One tenant's exact state (wire::kDefaultTenant = the default
  /// accumulator). Unknown tenants are InvalidArgument.
  Result<AccumulatorState> ExportTenantState(uint32_t tenant) const;
  /// Tenants with an accumulator, ascending (excludes the default).
  std::vector<uint32_t> TenantIds() const;

  /// Budget accounting. The ledger is shared: the server points every
  /// sub-session at one ledger so budgets cap the process-global spend.
  void SetTenantBudget(uint32_t tenant, TenantBudget budget);
  const std::shared_ptr<TenantLedger>& ledger() const { return ledger_; }
  void set_ledger(std::shared_ptr<TenantLedger> ledger);

  /// The exactly-once dedup window (single-threaded, never shared).
  SequenceTracker* sequence_tracker() { return &tracker_; }

  /// Merges every accumulator of `other` (default + tenants, per tenant)
  /// into this session WITHOUT charging the ledger — the frames behind
  /// `other`'s state were charged when first absorbed. This is how the
  /// server folds its per-slot sub-sessions into the main session at
  /// drain without double-spending budgets or collapsing tenants.
  Status AbsorbSession(const CollectorSession& other);

  /// Replaces the session's state with the given sketch frames (one per
  /// tenant, as produced by EncodeSketches) — the WAL checkpoint restore:
  /// RESET semantics, not merge. On failure the session is unchanged.
  Status ResetToSketches(const std::vector<std::string>& sketches);

  /// Replays the WAL at `path` into this session (frames through
  /// HandleFrame, checkpoints through ResetToSketches, seq checkpoints
  /// into the dedup window) and returns the log, open for appending at the
  /// clean prefix; WalLog::recovery() holds what replay found (the
  /// torn-tail contract is ReplayWal's). The session never writes the
  /// log: its owner appends accepted frames and compacts. With
  /// options.segment_bytes > 0 `path` is a segment directory.
  Result<WalLog> OpenWal(const std::string& path,
                         const WalOptions& options = {});

  /// Inverts the TOTAL aggregate (default + tenants) into the method
  /// output. Requires num_reports() > 0.
  Result<MethodOutput> Reconstruct() const;

 private:
  CollectorSession(wire::MethodSpec spec,
                   std::shared_ptr<const Protocol> protocol);

  /// The tenant's accumulator, or null when the tenant has none yet.
  Accumulator* FindTenant(uint32_t tenant);
  const Accumulator* FindTenant(uint32_t tenant) const;
  /// The total aggregate as one freshly merged accumulator.
  Result<std::unique_ptr<Accumulator>> MergedTotal() const;

  wire::MethodSpec spec_;
  std::shared_ptr<const Protocol> protocol_;
  /// The default tenant's accumulator (untagged frames).
  std::unique_ptr<Accumulator> acc_;
  /// Lazily created per-tenant accumulators (tenant-tagged frames).
  std::map<uint32_t, std::unique_ptr<Accumulator>> tenants_;
  std::shared_ptr<TenantLedger> ledger_;
  SequenceTracker tracker_;
};

}  // namespace numdist::serve
