#pragma once
// Measurement from outside the program: decorators over the public
// interfaces sim::Runtime calls (SplitController / Controller,
// TenantObserver, BatchEncoder, BatchScorer). They forward every call
// unchanged, so a replay through them makes the same decisions.
//
// Two things are measured:
//   * per-decision latency (always on): from the first controller or
//     observer call of a tenant's tick group to the return of that
//     tenant's own finish call. A tick group is keyed by (shard, tick
//     instant) with shard = tenant index mod shards, the runtime's
//     partition rule;
//   * spans (traced runs only): one record per call with layer, tenant,
//     tick instant, shard, start and end, kept in memory and summed into
//     the layer budget after the replay.
//
// Concurrency: a shard's tick groups run strictly one after another (the
// runtime hands a shard between executors with acquire/release claims),
// and a group's batched encode runs between its begin and finish phases
// with the pool's submit/wait ordering around it. So each ShardClock is
// written by one thread at a time and needs no lock.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/runtime.hpp"

namespace deepbat::perfbench {

enum class Layer : std::uint8_t {
  kBegin,       // SplitController::begin_tick (parse + cache probe)
  kEncode,      // BatchEncoder::encode
  kScore,       // BatchScorer::score
  kPolicy,      // SplitController::finish_tick_scored
  kFinishSolo,  // SplitController::finish_tick (per-tenant scoring)
  kDecide,      // Controller::decide (controllers without the split path)
  kObserve,     // TenantObserver::on_tick
  kCount
};

inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kCount);

/// Metric prefix of each layer ("core.encode", "learn.on_tick", ...).
const char* layer_name(Layer layer);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span::tenant of a batched call, which serves the whole tick group.
inline constexpr std::uint32_t kGroupCall = 0xffffffffU;

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double instant = 0.0;
  std::uint32_t tenant = 0;  // global tenant index; kGroupCall for batches
  std::uint32_t items = 0;   // windows / rows for batch calls, else 1
  std::uint16_t shard = 0;
  Layer layer = Layer::kBegin;
};

/// Per-shard tick-group state, latency samples and spans.
class alignas(64) ShardClock {
 public:
  /// Open the group at `instant` if this call is its first.
  void enter(double instant) {
    if (!open_ || instant != instant_) {
      open_ = true;
      instant_ = instant;
      group_start_ns_ = now_ns();
      pending_windows_ = 0;
    }
  }
  /// A tenant's decision returned: record its latency.
  void finish(std::int64_t end_ns) {
    latencies_ns_.push_back(end_ns - group_start_ns_);
  }

  double instant() const { return instant_; }
  std::size_t pending_windows() const { return pending_windows_; }
  void add_pending_window() { ++pending_windows_; }
  void clear_pending_windows() { pending_windows_ = 0; }

  std::vector<std::int64_t>& latencies_ns() { return latencies_ns_; }
  std::vector<Span>& spans() { return spans_; }

 private:
  bool open_ = false;
  double instant_ = 0.0;
  std::int64_t group_start_ns_ = 0;
  std::size_t pending_windows_ = 0;  // begin_tick misses awaiting encode
  std::vector<std::int64_t> latencies_ns_;
  std::vector<Span> spans_;
};

/// The clocks of one replay plus whether spans are recorded.
struct Recorder {
  Recorder(std::size_t shards, bool traced)
      : clocks(std::make_unique<ShardClock[]>(shards)),
        shard_count(shards),
        traced(traced) {}

  ShardClock& clock(std::size_t shard) { return clocks[shard]; }

  std::unique_ptr<ShardClock[]> clocks;
  std::size_t shard_count;
  bool traced;
};

/// Times a split controller (DeepBAT, adaptive DeepBAT).
class TimedSplitController final : public sim::SplitController {
 public:
  TimedSplitController(sim::SplitController& inner, std::uint32_t tenant,
                       std::size_t shard, Recorder& recorder)
      : inner_(inner),
        tenant_(tenant),
        shard_(static_cast<std::uint16_t>(shard)),
        clock_(recorder.clock(shard)),
        traced_(recorder.traced) {}

  lambda::Config decide(const workload::Trace& history, double now) override;
  std::string name() const override { return inner_.name(); }
  TickRequest begin_tick(const workload::Trace& history, double now) override;
  lambda::Config finish_tick(std::span<const float> encoding) override;
  bool supports_batched_scoring() const override {
    return inner_.supports_batched_scoring();
  }
  lambda::Config finish_tick_scored(
      std::span<const float> encoding,
      std::span<const float> raw_predictions) override;

 private:
  void span(Layer layer, std::int64_t start, std::int64_t end);

  sim::SplitController& inner_;
  std::uint32_t tenant_;
  std::uint16_t shard_;
  ShardClock& clock_;
  bool traced_;
};

/// Times a plain controller (no split path). One instance per tenant, so
/// each knows its tenant index and shard.
class TimedController final : public sim::Controller {
 public:
  TimedController(sim::Controller& inner, std::uint32_t tenant,
                  std::size_t shard, Recorder& recorder)
      : inner_(inner),
        tenant_(tenant),
        shard_(static_cast<std::uint16_t>(shard)),
        clock_(recorder.clock(shard)),
        traced_(recorder.traced) {}

  lambda::Config decide(const workload::Trace& history, double now) override;
  std::string name() const override { return inner_.name(); }

 private:
  sim::Controller& inner_;
  std::uint32_t tenant_;
  std::uint16_t shard_;
  ShardClock& clock_;
  bool traced_;
};

/// Times a tick observer (the online-learning loop).
class TimedObserver final : public sim::TenantObserver {
 public:
  TimedObserver(sim::TenantObserver& inner, std::uint32_t tenant,
                std::size_t shard, Recorder& recorder)
      : inner_(inner),
        tenant_(tenant),
        shard_(static_cast<std::uint16_t>(shard)),
        clock_(recorder.clock(shard)),
        traced_(recorder.traced) {}

  void on_tick(double now, const sim::SimResult& result) override;
  std::span<const sim::SwapEvent> swaps() const override {
    return inner_.swaps();
  }

 private:
  sim::TenantObserver& inner_;
  std::uint32_t tenant_;
  std::uint16_t shard_;
  ShardClock& clock_;
  bool traced_;
};

/// Times one shard's batched encodes. Also checks that each call carries
/// exactly the windows its shard's begin_tick calls asked for, which
/// proves the encode was attributed to the right shard.
class TimedEncoder final : public sim::BatchEncoder {
 public:
  TimedEncoder(sim::BatchEncoder& inner, std::size_t shard,
               Recorder& recorder)
      : inner_(inner),
        shard_(static_cast<std::uint16_t>(shard)),
        clock_(recorder.clock(shard)) {}

  std::size_t window_length() const override {
    return inner_.window_length();
  }
  std::size_t encoding_dim() const override { return inner_.encoding_dim(); }
  void encode(std::span<const float> windows, std::size_t count,
              std::span<float> out) override;

 private:
  sim::BatchEncoder& inner_;
  std::uint16_t shard_;
  ShardClock& clock_;
};

/// Times one shard's fused grid-scoring passes.
class TimedScorer final : public sim::BatchScorer {
 public:
  TimedScorer(sim::BatchScorer& inner, std::size_t shard, Recorder& recorder)
      : inner_(inner),
        shard_(static_cast<std::uint16_t>(shard)),
        clock_(recorder.clock(shard)) {}

  std::size_t encoding_dim() const override { return inner_.encoding_dim(); }
  std::size_t grid_size() const override { return inner_.grid_size(); }
  std::size_t target_dim() const override { return inner_.target_dim(); }
  void score(std::span<const float> e1_rows, std::size_t count,
             std::span<float> out) override;

 private:
  sim::BatchScorer& inner_;
  std::uint16_t shard_;
  ShardClock& clock_;
};

/// Per-layer totals summed from the spans of every shard.
struct LayerTotals {
  std::size_t calls = 0;
  std::size_t items = 0;  // windows (encode) / rows (score) / calls
  double busy_s = 0.0;
  double max_call_s = 0.0;
};

struct TraceTotals {
  LayerTotals layers[kLayerCount];
  std::size_t spans = 0;
  double busy_s() const;
};

TraceTotals sum_spans(Recorder& recorder);

/// Write every span as CSV (layer,tenant,shard,instant,start_ns,end_ns,
/// items), start times relative to the earliest span.
void write_spans_csv(Recorder& recorder, const std::string& path);

}  // namespace deepbat::perfbench
