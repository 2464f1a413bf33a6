#pragma once
// Multi-tenant serverless runtime: N applications (tenants), each with its
// own trace, SLO/controller, and batching buffer, replayed by a SHARDED
// ASYNC executor. Tenants are independent at the workload level — the
// shared resource is the controller's model evaluation: DeepBAT tenants
// split their decision into parse/encode/select phases (SplitController)
// so each shard can batch its tenants' per-tick sequence encodings into a
// single surrogate forward (paper §IV-F's encode-once split, amortized
// fleet-wide as in HarmonyBatch, arXiv:2405.05633).
//
// Execution model (DESIGN.md §10):
//   TickScheduler   — the global tick grid: tick k fires at k * interval,
//                     computed by multiplication so coinciding ticks are
//                     bitwise-equal across tenants, shards, and solo runs.
//   RuntimeShard    — one execution unit owning a deterministic subset of
//                     tenants (slot i -> shard i mod S), their simulators
//                     and engines (single-writer caches by construction),
//                     and its own batch-encoder view. Within a shard, tick
//                     groups are double-buffered: while group k's batched
//                     encode() runs on the pool, the shard pre-advances
//                     non-member tenants' arrival events to the next tick
//                     instant, hiding control latency behind simulation
//                     work.
//   Runtime         — partitions tenants, runs shards on a WorkerPool
//                     (common/parallel.hpp), and merges per-shard
//                     RuntimeStats at join.
//
// Determinism contract (tests/sim/test_runtime.cpp): a run with ANY shard
// count and with or without encode overlap is bit-identical per tenant to
// N independent run_platform() replays. run_platform() itself is a
// single-tenant, single-shard, non-overlapped wrapper over this loop.

#include <algorithm>
#include <cstddef>
#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "sim/platform.hpp"

namespace deepbat::sim {

class RuntimeShard;

/// Shared encoding service implemented over the surrogate (core layer).
/// Kept abstract here so sim/ stays free of the nn dependency: the currency
/// is plain float spans.
///
/// Concurrency: encode() may be called from several runtime shards at
/// once — on distinct per-shard instances or on one shared instance.
/// Implementations must therefore be stateless across calls apart from the
/// base-class counters (which are relaxed atomics); SurrogateBatchEncoder
/// satisfies this by running a const model forward under thread-local
/// no-grad and arena scopes.
class BatchEncoder {
 public:
  virtual ~BatchEncoder() = default;

  /// Window length l every submitted window must have.
  virtual std::size_t window_length() const = 0;
  /// Dimension d of one encoded row.
  virtual std::size_t encoding_dim() const = 0;

  /// Encode `count` windows (concatenated row-major: count * window_length
  /// floats) into `out` (count * encoding_dim floats) with a SINGLE model
  /// forward. Row k of `out` must be bit-identical to encoding window k
  /// alone — the kernels' per-row determinism contract makes the batch
  /// split invisible to results.
  virtual void encode(std::span<const float> windows, std::size_t count,
                      std::span<float> out) = 0;

  /// Number of encode() calls / total windows shipped (bench counters).
  std::size_t calls() const { return calls_.load(std::memory_order_relaxed); }
  std::size_t windows_encoded() const {
    return windows_.load(std::memory_order_relaxed);
  }

 protected:
  void count_call(std::size_t windows) {
    calls_.fetch_add(1, std::memory_order_relaxed);
    windows_.fetch_add(windows, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::size_t> calls_{0};
  std::atomic<std::size_t> windows_{0};
};

/// Shared grid-scoring service (core::SurrogateBatchScorer): scores k
/// tenants' encoded rows against the whole candidate grid in one fused
/// pass. Abstract for the same reason as BatchEncoder — sim/ trades in
/// plain float spans, so it never depends on nn/ or the core prediction
/// types.
///
/// Concurrency: score() may run on several shards at once (distinct or
/// shared instances); implementations must be stateless across calls apart
/// from the relaxed base-class counters.
class BatchScorer {
 public:
  virtual ~BatchScorer() = default;

  /// Dimension d of one encoded input row.
  virtual std::size_t encoding_dim() const = 0;
  /// Number of grid configurations scored per row.
  virtual std::size_t grid_size() const = 0;
  /// Floats emitted per (row, config) prediction.
  virtual std::size_t target_dim() const = 0;

  /// Score `count` encoded rows (concatenated, count * encoding_dim floats)
  /// into `out` (count * grid_size * target_dim floats, tenant-major). Row
  /// k's slice must be bit-identical to scoring row k alone — the fused
  /// pass must be invisible to results at any batch split.
  virtual void score(std::span<const float> e1_rows, std::size_t count,
                     std::span<float> out) = 0;

  /// Number of score() calls / total rows scored (bench counters).
  std::size_t calls() const { return calls_.load(std::memory_order_relaxed); }
  std::size_t rows_scored() const {
    return rows_.load(std::memory_order_relaxed);
  }

 protected:
  void count_call(std::size_t rows) {
    calls_.fetch_add(1, std::memory_order_relaxed);
    rows_.fetch_add(rows, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::size_t> calls_{0};
  std::atomic<std::size_t> rows_{0};
};

/// Controller whose decision splits into phases so the expensive shared
/// stage can be batched across tenants:
///   begin_tick()  — parse the window, probe the encoder cache;
///   (the shard batch-encodes the cache misses of every tenant in the tick)
///   finish_tick() — score the grid and select the configuration.
/// Implementations must also provide the plain decide() (Controller) for
/// single-tenant use; both paths must produce identical decisions.
class SplitController : public Controller {
 public:
  struct TickRequest {
    /// True when the runtime must supply an encoding to finish_tick();
    /// false when the controller already has one (window-cache hit).
    bool needs_encoding = false;
    /// The parsed+encoded window (length = BatchEncoder::window_length()),
    /// valid until finish_tick() returns. Empty when !needs_encoding.
    std::span<const float> window;
    /// True when the controller skipped its surrogate path entirely (e.g.
    /// DeepBAT's circuit breaker is open and the tick falls back to the
    /// last-known-good config). Such a tick is neither a window-cache hit
    /// nor a miss in RuntimeStats.
    bool bypassed = false;
    /// On a window-cache hit (!needs_encoding && !bypassed): the cached
    /// encoded row, so a runtime with a BatchScorer can fold this tenant
    /// into the tick group's fused scoring pass without re-encoding. Valid
    /// until finish_tick()/finish_tick_scored() returns. Controllers that
    /// do not support batched scoring may leave it empty.
    std::span<const float> cached_encoding;
  };

  virtual TickRequest begin_tick(const workload::Trace& history,
                                 double now) = 0;
  /// `encoding`: one encoded row (encoding_dim floats) when the matching
  /// begin_tick() asked for one; empty otherwise.
  virtual lambda::Config finish_tick(std::span<const float> encoding) = 0;

  /// True when the controller can accept externally computed grid scores
  /// via finish_tick_scored(). Controllers returning true must populate
  /// TickRequest::cached_encoding on window-cache hits.
  virtual bool supports_batched_scoring() const { return false; }
  /// finish_tick() variant fed by the runtime's shared BatchScorer:
  /// `raw_predictions` is this tenant's slice of the fused scoring output
  /// (grid_size * target_dim floats). Only called on non-bypassed ticks of
  /// controllers whose supports_batched_scoring() is true; the default
  /// ignores the scores and re-scores via finish_tick().
  virtual lambda::Config finish_tick_scored(
      std::span<const float> encoding,
      std::span<const float> /*raw_predictions*/) {
    return finish_tick(encoding);
  }
};

/// One application replayed by the runtime.
struct TenantSpec {
  std::string name;
  const workload::Trace* trace = nullptr;
  Controller* controller = nullptr;
  /// Lambda cost/latency model serving this tenant (tenants may differ).
  const lambda::LambdaModel* model = nullptr;
  /// Heterogeneous serving backend (DESIGN.md §13). When set it wins over
  /// `model` (which may then be null); at least one of the two must be
  /// non-null. The caller keeps the backend alive across run().
  const lambda::Backend* backend = nullptr;
  /// Fleet function-group id assigned by core::FleetOptimizer; -1 means
  /// ungrouped (solo tenant). Copied verbatim into PlatformRun::group_id.
  std::int64_t group_id = -1;
  lambda::Config initial_config;
  PlatformOptions options;  // per-tenant control interval + cold-start seed
};

/// Per-run counters, kept as a plain snapshot view for callers; every field
/// is also mirrored into the process metrics registry under sim.runtime.*
/// (counters tick_group / control_tick / batched_window / encode_call /
/// cache_hit / cache_miss, histograms batch_encode_seconds /
/// tick_group_seconds / tenant_phase_seconds — DESIGN.md §9; multi-shard
/// runs additionally record sim.runtime.shard<k>.* histograms).
///
/// In a sharded run each RuntimeShard accumulates its own instance
/// (single-writer) and the Runtime folds them with merge() at join, so the
/// caller always sees fleet totals.
struct RuntimeStats {
  std::size_t tick_groups = 0;      // tick instants processed (per shard)
  std::size_t control_ticks = 0;    // per-tenant control decisions
  std::size_t batched_windows = 0;  // windows routed through the shared
                                    // encoder (cache misses)
  std::size_t encode_calls = 0;     // batched forwards issued
  /// Split-controller window-cache accounting, derived from the tick
  /// requests the runtime itself sees (a split tick that needs no encoding
  /// IS a window-cache hit). This is the single source of truth for
  /// solo-vs-batched hit-rate comparisons — benches must not re-derive hit
  /// rates from controller internals.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  /// Split ticks that skipped the surrogate path entirely (controller
  /// circuit breaker open); counted separately from hits and misses.
  std::size_t bypassed_ticks = 0;
  /// Total wall time inside the shared encoder's batched forwards.
  double encode_seconds = 0.0;
  /// Fused grid-scoring accounting (runs with a BatchScorer only):
  /// tenant rows scored through the shared fused pass, passes issued, and
  /// the wall time inside them.
  std::size_t scored_rows = 0;
  std::size_t score_calls = 0;
  double score_seconds = 0.0;
  /// Heterogeneous-fleet accounting (DESIGN.md §13): tenants replayed with
  /// a fleet group id (group_id >= 0) and billed invocations split by
  /// serving backend. Tenants without an explicit backend count as CPU —
  /// the legacy model path IS the CPU backend.
  std::size_t fleet_groups = 0;
  std::size_t cpu_invocations = 0;
  std::size_t gpu_invocations = 0;
  /// Always 0: the shard schedule never moves work between shards. Kept so
  /// existing readers and the checkpoint stats block keep their layout.
  std::size_t steals = 0;
  /// High-water mark of pending live tenant slots observed on any single
  /// shard (mirrored into the sim.runtime.queue_depth gauge).
  std::size_t max_queue_depth = 0;

  double cache_hit_rate() const {
    const std::size_t probes = cache_hits + cache_misses;
    return probes > 0 ? static_cast<double>(cache_hits) /
                            static_cast<double>(probes)
                      : 0.0;
  }

  /// Fold another shard's stats into this one: every count and every
  /// seconds total SUMS, except max_queue_depth — a high-water mark, which
  /// merges as the MAX; derived rates (cache_hit_rate) recompute from the
  /// summed counts — they are never averaged across shards.
  void merge(const RuntimeStats& other) {
    tick_groups += other.tick_groups;
    control_ticks += other.control_ticks;
    batched_windows += other.batched_windows;
    encode_calls += other.encode_calls;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    bypassed_ticks += other.bypassed_ticks;
    encode_seconds += other.encode_seconds;
    scored_rows += other.scored_rows;
    score_calls += other.score_calls;
    score_seconds += other.score_seconds;
    fleet_groups += other.fleet_groups;
    cpu_invocations += other.cpu_invocations;
    gpu_invocations += other.gpu_invocations;
    max_queue_depth = std::max(max_queue_depth, other.max_queue_depth);
  }
};

struct RuntimeOptions {
  /// Worker shards tenants are partitioned over (slot i -> shard i mod
  /// shards, clamped to the tenant count). 1 replays every tenant on the
  /// calling thread, exactly the pre-sharding loop.
  std::size_t shards = 1;
  /// Double-buffer tick groups: run each tick group's batched encode()
  /// forward on the worker pool while the owning shard pre-advances
  /// non-member tenants to the next tick instant. Only takes effect where
  /// it can help — a shard with at least two tenants and a batch encoder.
  /// Results are bit-identical either way.
  bool overlap_encode = true;
};

/// The sharded executor. With a batch encoder, all SplitController tenants
/// of one shard ticking at the same instant are encoded in one forward;
/// without one, every controller runs its plain decide() (still one loop
/// per shard).
class Runtime {
 public:
  // Both out-of-line: shards_ holds the forward-declared RuntimeShard.
  explicit Runtime(BatchEncoder* shared_encoder = nullptr,
                   RuntimeOptions options = {});
  ~Runtime();

  /// Per-shard encoder instances: when set (and non-null per call), each
  /// shard encodes through its own factory-made instance, keeping even the
  /// encoder's bench counters single-writer. Without a factory every shard
  /// shares `shared_encoder`, which is safe (see BatchEncoder) but merges
  /// all shards' calls()/windows_encoded() into one instance.
  using EncoderFactory = std::function<std::unique_ptr<BatchEncoder>()>;
  void set_encoder_factory(EncoderFactory factory) {
    encoder_factory_ = std::move(factory);
  }

  /// Shared fused grid scorer: when set, each shard scores all of a tick
  /// group's batched-scoring tenants (cache hits included) in one
  /// BatchScorer::score() pass and finishes them via finish_tick_scored().
  /// Requires a batch encoder (the split path). Null keeps the per-tenant
  /// scoring inside finish_tick(), exactly the pre-scorer loop.
  void set_scorer(BatchScorer* scorer) { scorer_ = scorer; }
  /// Per-shard scorer instances, mirroring set_encoder_factory: when set,
  /// each shard scores through its own factory-made instance so even the
  /// scorer's bench counters stay single-writer.
  using ScorerFactory = std::function<std::unique_ptr<BatchScorer>()>;
  void set_scorer_factory(ScorerFactory factory) {
    scorer_factory_ = std::move(factory);
  }

  /// Size hint for bulk registration: reserves the tenant table once so a
  /// million add_tenant() calls don't pay geometric regrowth copies.
  void reserve(std::size_t tenants) { tenants_.reserve(tenants); }

  void add_tenant(TenantSpec spec);
  std::size_t tenant_count() const { return tenants_.size(); }

  const RuntimeOptions& options() const { return options_; }

  /// Replay every tenant to the end of its trace (resuming from wherever
  /// run_until() or restore_checkpoint() left the replay). Returns one
  /// PlatformRun per tenant, in add_tenant() order, and is terminal: the
  /// runs are moved out, so call it once. Each tenant's run is bit-identical
  /// to a solo run_platform() with the same spec, for every shard count —
  /// and for every save/restore split (DESIGN.md §16).
  std::vector<PlatformRun> run();

  /// Advance the replay through every tick group with instant <= `limit`
  /// seconds, with the shards in parallel exactly as in run(), and stop at
  /// that tick-group boundary — no tenant is finalized. Tick groups are
  /// computed per shard, so any sequence of run_until() calls followed by
  /// run() is bit-identical to a single run() at any shard count. This is
  /// the checkpoint hook: call save_checkpoint() between run_until() and
  /// run().
  void run_until(double limit);

  /// Snapshot the complete replay state — scheduler progress, simulator
  /// traces-in-flight, fault/cold RNG positions, accumulated decisions, and
  /// each tenant's controller/observer state — into a versioned, checksummed
  /// file (sim/checkpoint.hpp; written atomically). Every tenant's
  /// controller (and observer, when set) must implement sim::Checkpointable;
  /// throws deepbat::Error otherwise. Call at a tick-group boundary
  /// (after run_until()).
  void save_checkpoint(const std::string& path);

  /// Resume a replay from a snapshot: must be called on a FRESH runtime
  /// (before any run_until()/run()) populated with the same tenants in the
  /// same order — names and fault streams are verified. The shard count may
  /// differ from the saving runtime's: the checkpoint is laid out in global
  /// tenant order, never by shard. Throws deepbat::Error on any mismatch or
  /// on a corrupt/version-skewed snapshot file, leaving no partial state
  /// behind UB — a failed restore leaves the runtime unusable but defined.
  void restore_checkpoint(const std::string& path);

  /// Fleet totals. After run(): the completed replay's stats, including
  /// everything accumulated before a restore (stitched via merge()).
  const RuntimeStats& stats() const { return stats_; }

 private:
  /// Build the execution state once: partition tenants over shards, build
  /// the worker pool and per-shard encoder/scorer instances. Idempotent.
  void start();

  /// The one shard schedule: shard 0 on the calling thread, shards 1..S-1
  /// as WorkerPool tasks, each draining its quanta up to `limit` and then,
  /// when `finalize` is set, finalizing its tenants. Joins every shard
  /// before rethrowing the first error (in shard order).
  void drive(double limit, bool finalize);

  BatchEncoder* encoder_;
  BatchScorer* scorer_ = nullptr;
  RuntimeOptions options_;
  EncoderFactory encoder_factory_;
  ScorerFactory scorer_factory_;
  std::vector<TenantSpec> tenants_;
  RuntimeStats stats_;
  // Config-validation memo (add_tenant): bulk registrations overwhelmingly
  // reuse one (backend, initial config) pair, so remember the last pair
  // that validated clean and skip the re-validation for repeats.
  const lambda::Backend* validated_backend_ = nullptr;
  std::optional<lambda::Config> validated_config_;

  // Execution state, persistent across run_until()/run() so a replay can be
  // advanced stepwise, checkpointed, and resumed. Built by start().
  bool started_ = false;
  std::size_t shard_count_ = 1;
  std::optional<WorkerPool> pool_;
  std::vector<std::unique_ptr<BatchEncoder>> owned_encoders_;
  std::vector<std::unique_ptr<BatchScorer>> owned_scorers_;
  std::vector<std::unique_ptr<RuntimeShard>> shards_;
  std::vector<PlatformRun> runs_;
  /// Stats carried over from before a restore (zero for fresh runs); the
  /// final stats_ merges this with the live shards' post-restore stats.
  RuntimeStats base_stats_;
};

}  // namespace deepbat::sim
