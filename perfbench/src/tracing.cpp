#include "tracing.hpp"

#include <algorithm>
#include <fstream>
#include <limits>

#include "common/error.hpp"

namespace deepbat::perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kBegin:
      return "core.begin";
    case Layer::kEncode:
      return "core.encode";
    case Layer::kScore:
      return "core.score";
    case Layer::kPolicy:
      return "core.policy";
    case Layer::kFinishSolo:
      return "core.finish_solo";
    case Layer::kDecide:
      return "core.decide";
    case Layer::kObserve:
      return "learn.on_tick";
    case Layer::kCount:
      break;
  }
  return "unknown";
}

void TimedSplitController::span(Layer layer, std::int64_t start,
                                std::int64_t end) {
  clock_.spans().push_back(
      Span{start, end, clock_.instant(), tenant_, 1, shard_, layer});
}

lambda::Config TimedSplitController::decide(const workload::Trace& history,
                                            double now) {
  clock_.enter(now);
  const std::int64_t start = traced_ ? now_ns() : 0;
  const lambda::Config config = inner_.decide(history, now);
  const std::int64_t end = now_ns();
  clock_.finish(end);
  if (traced_) span(Layer::kDecide, start, end);
  return config;
}

sim::SplitController::TickRequest TimedSplitController::begin_tick(
    const workload::Trace& history, double now) {
  clock_.enter(now);
  const std::int64_t start = traced_ ? now_ns() : 0;
  TickRequest request = inner_.begin_tick(history, now);
  if (request.needs_encoding) clock_.add_pending_window();
  if (traced_) span(Layer::kBegin, start, now_ns());
  return request;
}

lambda::Config TimedSplitController::finish_tick(
    std::span<const float> encoding) {
  const std::int64_t start = traced_ ? now_ns() : 0;
  const lambda::Config config = inner_.finish_tick(encoding);
  const std::int64_t end = now_ns();
  clock_.finish(end);
  if (traced_) span(Layer::kFinishSolo, start, end);
  return config;
}

lambda::Config TimedSplitController::finish_tick_scored(
    std::span<const float> encoding, std::span<const float> raw_predictions) {
  const std::int64_t start = traced_ ? now_ns() : 0;
  const lambda::Config config =
      inner_.finish_tick_scored(encoding, raw_predictions);
  const std::int64_t end = now_ns();
  clock_.finish(end);
  if (traced_) span(Layer::kPolicy, start, end);
  return config;
}

lambda::Config TimedController::decide(const workload::Trace& history,
                                       double now) {
  clock_.enter(now);
  const std::int64_t start = traced_ ? now_ns() : 0;
  const lambda::Config config = inner_.decide(history, now);
  const std::int64_t end = now_ns();
  clock_.finish(end);
  if (traced_) {
    clock_.spans().push_back(
        Span{start, end, now, tenant_, 1, shard_, Layer::kDecide});
  }
  return config;
}

void TimedObserver::on_tick(double now, const sim::SimResult& result) {
  clock_.enter(now);
  const std::int64_t start = traced_ ? now_ns() : 0;
  inner_.on_tick(now, result);
  if (traced_) {
    clock_.spans().push_back(
        Span{start, now_ns(), now, tenant_, 1, shard_, Layer::kObserve});
  }
}

void TimedEncoder::encode(std::span<const float> windows, std::size_t count,
                          std::span<float> out) {
  DEEPBAT_CHECK(count == clock_.pending_windows(),
                "perfbench: encode call does not match its shard's cache "
                "misses (shard attribution is wrong)");
  clock_.clear_pending_windows();
  const std::int64_t start = now_ns();
  inner_.encode(windows, count, out);
  const std::int64_t end = now_ns();
  count_call(count);
  clock_.spans().push_back(Span{start, end, clock_.instant(), kGroupCall,
                                static_cast<std::uint32_t>(count), shard_,
                                Layer::kEncode});
}

void TimedScorer::score(std::span<const float> e1_rows, std::size_t count,
                        std::span<float> out) {
  const std::int64_t start = now_ns();
  inner_.score(e1_rows, count, out);
  const std::int64_t end = now_ns();
  count_call(count);
  clock_.spans().push_back(Span{start, end, clock_.instant(), kGroupCall,
                                static_cast<std::uint32_t>(count), shard_,
                                Layer::kScore});
}

double TraceTotals::busy_s() const {
  double total = 0.0;
  for (const LayerTotals& l : layers) total += l.busy_s;
  return total;
}

TraceTotals sum_spans(Recorder& recorder) {
  TraceTotals totals;
  for (std::size_t s = 0; s < recorder.shard_count; ++s) {
    for (const Span& span : recorder.clock(s).spans()) {
      LayerTotals& l = totals.layers[static_cast<std::size_t>(span.layer)];
      const double seconds =
          static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
      ++l.calls;
      l.items += span.items;
      l.busy_s += seconds;
      l.max_call_s = std::max(l.max_call_s, seconds);
      ++totals.spans;
    }
  }
  return totals;
}

void write_spans_csv(Recorder& recorder, const std::string& path) {
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (std::size_t s = 0; s < recorder.shard_count; ++s) {
    for (const Span& span : recorder.clock(s).spans()) {
      origin = std::min(origin, span.start_ns);
    }
  }
  std::ofstream out(path);
  DEEPBAT_CHECK(out.good(), "perfbench: cannot write " + path);
  out << "layer,tenant,shard,instant,start_ns,end_ns,items\n";
  for (std::size_t s = 0; s < recorder.shard_count; ++s) {
    for (const Span& span : recorder.clock(s).spans()) {
      const long long tenant =
          span.tenant == kGroupCall ? -1 : static_cast<long long>(span.tenant);
      out << layer_name(span.layer) << ',' << tenant << ',' << span.shard
          << ',' << span.instant << ','
          << span.start_ns - origin << ',' << span.end_ns - origin << ','
          << span.items << '\n';
    }
  }
  DEEPBAT_CHECK(out.good(), "perfbench: failed writing " + path);
}

}  // namespace deepbat::perfbench
