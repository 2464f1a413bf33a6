// Self-tests of the benchmark's own arithmetic: the decision digest, the
// percentile rule and the layer-budget residual. Built next to the
// benchmark binary; run.py runs it before every measurement and refuses to
// measure when it fails. Exit code 0 = all checks passed.
#include <cmath>
#include <cstdio>
#include <vector>

#include "summary.hpp"

using namespace deepbat;
using namespace deepbat::perfbench;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

std::vector<sim::PlatformRun> sample_runs() {
  std::vector<sim::PlatformRun> runs(2);
  runs[0].decisions = {{0.0, {1024, 1, 0.0}}, {30.0, {2048, 4, 0.05}}};
  runs[0].result.total_cost = 1.25e-4;
  runs[0].result.invocations = 7;
  runs[0].result.requests.resize(9);
  runs[0].result.dropped = 1;
  runs[1].decisions = {{0.0, {1024, 1, 0.0}}};
  runs[1].swaps = {{60.0, 0, 1}};
  return runs;
}

void test_digest() {
  const auto base = sample_runs();
  const std::string d0 = decision_digest(base);
  check(d0.size() == 16, "digest is 16 hex digits");
  check(decision_digest(sample_runs()) == d0, "digest is deterministic");

  // Every field the digest covers must move it.
  auto runs = sample_runs();
  runs[0].decisions[1].time = 30.000000001;
  check(decision_digest(runs) != d0, "digest covers decision times");
  runs = sample_runs();
  runs[0].decisions[1].config.batch_size = 5;
  check(decision_digest(runs) != d0, "digest covers batch size");
  runs = sample_runs();
  runs[0].decisions[1].config.memory_mb = 3008;
  check(decision_digest(runs) != d0, "digest covers memory");
  runs = sample_runs();
  runs[0].decisions[1].config.timeout_s = 0.06;
  check(decision_digest(runs) != d0, "digest covers timeout");
  runs = sample_runs();
  runs[0].result.total_cost = std::nextafter(1.25e-4, 1.0);
  check(decision_digest(runs) != d0, "digest covers cost to the last bit");
  runs = sample_runs();
  runs[0].result.invocations = 8;
  check(decision_digest(runs) != d0, "digest covers invocations");
  runs = sample_runs();
  runs[0].result.requests.resize(10);
  check(decision_digest(runs) != d0, "digest covers served requests");
  runs = sample_runs();
  runs[0].result.dropped = 2;
  check(decision_digest(runs) != d0, "digest covers dropped requests");
  runs = sample_runs();
  runs[1].swaps[0].to_version = 2;
  check(decision_digest(runs) != d0, "digest covers swap events");
  runs = sample_runs();
  std::swap(runs[0], runs[1]);
  check(decision_digest(runs) != d0, "digest covers tenant order");
  // A decision moved from one tenant to the next must not collide.
  runs = sample_runs();
  runs[1].decisions.insert(runs[1].decisions.begin(), runs[0].decisions[1]);
  runs[0].decisions.pop_back();
  check(decision_digest(runs) != d0, "digest covers decision ownership");
}

void test_percentile_rule() {
  check(samples_beyond(1000, 9900) == 10, "1000 samples: 10 beyond p99");
  check(samples_beyond(999, 9900) == 9, "999 samples: 9 beyond p99");
  check(samples_beyond(20, 5000) == 10, "20 samples: 10 beyond p50");
  check(highest_supported_percentile(19) == 0, "19 samples support nothing");
  check(highest_supported_percentile(20) == 5000, "20 samples support p50");
  check(highest_supported_percentile(100) == 9000, "100 samples support p90");
  check(highest_supported_percentile(999) == 9000, "999 samples stop at p90");
  check(highest_supported_percentile(1000) == 9900, "1000 samples reach p99");
  check(highest_supported_percentile(10000) == 9990, "10^4 reach p99.9");
  check(highest_supported_percentile(100000) == 9999, "10^5 reach p99.99");

  const std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0};
  check(near(quantile_sorted(sorted, 0.5), 2.5), "median interpolates");
  check(near(quantile_sorted(sorted, 0.0), 1.0), "q=0 is the minimum");
  check(near(quantile_sorted(sorted, 1.0), 4.0), "q=1 is the maximum");

  std::vector<double> ms(1000);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    ms[i] = static_cast<double>(ms.size() - i) * 1e-3;  // unsorted
  }
  const LatencySummary s = summarize_latencies(ms);
  check(s.count == 1000, "summary counts samples");
  check(near(s.p50_ms, 0.5005), "summary p50");
  check(s.p99_supported && s.top_percentile == 9900,
        "1000 samples report p99 as the top percentile");
  const LatencySummary small = summarize_latencies({5.0, 1.0, 3.0});
  check(!small.p99_supported && small.top_percentile == 0,
        "3 samples support no percentile");
}

void test_residual() {
  const Budget b{2.0, 3, 4.5};
  check(near(b.executor_s(), 6.0), "executor time is wall x executors");
  check(near(b.residual_s(), 1.5), "residual is executor time minus busy");
  check(near(b.residual_share(), 0.25), "residual share of executor time");
  check(near(Budget{0.0, 2, 0.0}.residual_share(), 0.0),
        "empty budget has no residual share");

  check(runtime_executors(2, 32, true, true) == 3,
        "2 shards + in-flight encode slot");
  check(runtime_executors(2, 100000, false, true) == 2,
        "no encoder: no encode slot");
  check(runtime_executors(1, 8, true, true) == 2,
        "1 shard with 8 tenants overlaps its encode");
  check(runtime_executors(4, 2, true, true) == 2,
        "shards clamp to tenants; no shard holds two tenants");
  check(runtime_executors(2, 32, true, false) == 2, "overlap off");
}

}  // namespace

int main() {
  test_digest();
  test_percentile_rule();
  test_residual();
  if (failures > 0) {
    std::fprintf(stderr, "perfbench selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
