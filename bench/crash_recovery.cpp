// Crash-recovery harness (DESIGN.md §16). Proves the runtime checkpoint is
// a REAL recovery point, not a best-effort snapshot, by actually killing a
// process:
//
//   1. reference — the parent replays DeepBAT (online retraining on) vs
//      BATCH under a fault scenario to completion, uninterrupted;
//   2. crash     — the parent re-execs itself (--crash-child); the child
//      rebuilds the identical replay, advances to a seeded save point,
//      writes a checkpoint, keeps running to a seeded crash point, and dies
//      with _exit() — no destructors, no flushes, a genuine kill;
//   3. recover   — the parent restores the checkpoint into a FRESH runtime
//      (fresh controllers, fresh learner state) in a process that never saw
//      the first half of the replay, and runs to completion.
//
// Gate (exit 1 on any failure): the recovered PlatformRuns must be the
// same run as the reference under sim::first_divergence (every field,
// DESIGN.md §10) for every scenario in {calm, flaky, chaos} at shard
// counts {1, 2, 5}. A calm pass plus two transient-fault
// scenarios with retraining exercises every serialized subsystem:
// calendar scheduler, simulator + fault streams, encoder cache,
// breaker, harvester/drift/retrainer, and the versioned surrogate store.
//
// The harness then corrupts the last checkpoint four ways — truncation,
// a payload bit-flip, a version bump, and a magic change — and requires
// each load to fail with a typed deepbat::Error (never UB, never a
// partially restored runtime).
//
// Flags: standard replay flags (--hours, --faults X restricts to one
// scenario, --retrain / --retrain-seed, --slo, --interval, --fault-seed,
// --json, --metrics) plus --crash-seed N (save/crash point seed).
// --crash-child / --checkpoint are internal (the re-exec protocol).
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/fileio.hpp"
#include "replay_common.hpp"

using namespace deepbat;

namespace {

/// One replay's live objects, construction-ordered so the runtime dies
/// before the controllers it borrows. Built identically by the reference
/// run, the crash child, and the recovery — bitwise recovery REQUIRES the
/// same tenants registered in the same order.
struct Session {
  std::optional<WorkerPool> retrain_pool;
  std::optional<learn::AdaptiveController> adaptive;
  std::optional<core::DeepBatController> plain;
  std::optional<batchlib::BatchController> batch;
  std::optional<core::SurrogateBatchEncoder> encoder;
  std::optional<sim::Runtime> runtime;
};

void build_session(Session& s, bench::Fixture& fx,
                   const workload::Trace& trace,
                   const core::Surrogate& surrogate, double gamma,
                   const bench::ReplayArgs& args, const std::string& scenario,
                   std::size_t shards) {
  obs::MetricsRegistry::instance().reset();
  obs::clear_spans();
  if (args.retrain) {
    auto aopts = bench::adaptive_controller_options(fx, args.slo_s, gamma,
                                                    args);
    s.retrain_pool.emplace(1);
    aopts.learn.retrain.pool = &*s.retrain_pool;
    s.adaptive.emplace(surrogate, aopts);
  } else {
    s.plain.emplace(surrogate, fx.controller_options(args.slo_s, gamma));
  }
  core::DeepBatController& deepbat =
      args.retrain ? static_cast<core::DeepBatController&>(*s.adaptive)
                   : *s.plain;
  s.batch.emplace(fx.model(), fx.batch_options(args.slo_s));
  s.encoder.emplace(surrogate);
  sim::RuntimeOptions ropts;
  ropts.shards = shards;
  s.runtime.emplace(&*s.encoder, ropts);

  sim::PlatformOptions popts;
  popts.control_interval_s = args.control_interval_s;
  popts.cold_start_seed = args.cold_start_seed;
  popts.faults = sim::fault_scenario(scenario, args.fault_seed);
  sim::TenantSpec spec;
  spec.trace = &trace;
  spec.model = &fx.model();
  spec.initial_config = {1024, 1, 0.0};
  spec.options = popts;
  spec.name = deepbat.name();
  spec.controller = &deepbat;
  spec.options.fault_stream = 0;
  if (args.retrain) spec.options.observer = &*s.adaptive;
  s.runtime->add_tenant(spec);
  spec.name = s.batch->name();
  spec.controller = &*s.batch;
  spec.options.fault_stream = 1;
  spec.options.observer = nullptr;
  s.runtime->add_tenant(spec);
}

/// Save/crash points as fractions of the horizon — a pure function of
/// (crash seed, scenario, shards), so the child and any rerun agree.
void crash_points(std::uint64_t crash_seed, const std::string& scenario,
                  std::size_t shards, double horizon, double* t_save,
                  double* t_crash) {
  std::uint64_t mix = crash_seed * 1000003ULL + shards * 131ULL;
  for (const char c : scenario) mix = mix * 31ULL + static_cast<unsigned char>(c);
  Rng rng(mix);
  *t_save = horizon * rng.uniform(0.30, 0.55);
  *t_crash = horizon * rng.uniform(0.65, 0.90);
}

/// The --crash-child body: replay to the save point, checkpoint, keep
/// going, then die hard at the crash point. _exit skips every destructor —
/// the checkpoint on disk is all the parent gets back.
[[noreturn]] void run_crash_child(bench::Fixture& fx,
                                  const workload::Trace& trace,
                                  const core::Surrogate& surrogate,
                                  double gamma, const bench::ReplayArgs& args,
                                  const std::string& scenario,
                                  std::size_t shards,
                                  const std::string& checkpoint_path,
                                  std::uint64_t crash_seed) {
  double t_save = 0.0;
  double t_crash = 0.0;
  crash_points(crash_seed, scenario, shards, trace.duration(), &t_save,
               &t_crash);
  Session s;
  build_session(s, fx, trace, surrogate, gamma, args, scenario, shards);
  s.runtime->run_until(t_save);
  s.runtime->save_checkpoint(checkpoint_path);
  s.runtime->run_until(t_crash);
  ::_exit(9);
}

bool expect_load_rejected(const std::string& label, const std::string& path,
                          bench::Fixture& fx, const workload::Trace& trace,
                          const core::Surrogate& surrogate, double gamma,
                          const bench::ReplayArgs& args,
                          const std::string& scenario, std::size_t shards) {
  Session s;
  build_session(s, fx, trace, surrogate, gamma, args, scenario, shards);
  try {
    s.runtime->restore_checkpoint(path);
  } catch (const Error& e) {
    std::printf("[crash] %-12s rejected: %s\n", label.c_str(), e.what());
    return true;
  }
  std::printf("[crash] %-12s NOT REJECTED — corrupt snapshot loaded\n",
              label.c_str());
  return false;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  DEEPBAT_CHECK(is.is_open(), "crash_recovery: cannot reread " + path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Corrupt the checkpoint four canonical ways; every load must throw a
/// typed error. Runs under whatever sanitizer the build carries — the
/// "never UB" half of the gate.
bool corruption_gates(const std::string& path, bench::Fixture& fx,
                      const workload::Trace& trace,
                      const core::Surrogate& surrogate, double gamma,
                      const bench::ReplayArgs& args,
                      const std::string& scenario) {
  const std::string good = read_file(path);
  DEEPBAT_CHECK(good.size() > 64, "crash_recovery: checkpoint implausibly small");
  bool ok = true;
  const std::string dir = path + ".corrupt";

  std::string truncated = good.substr(0, good.size() / 2);
  write_file_atomic(dir, truncated);
  ok &= expect_load_rejected("truncated", dir, fx, trace, surrogate, gamma,
                             args, scenario, 1);

  std::string flipped = good;
  flipped[flipped.size() / 2] ^= 0x40;  // payload bit-flip -> checksum fail
  write_file_atomic(dir, flipped);
  ok &= expect_load_rejected("bit-flipped", dir, fx, trace, surrogate, gamma,
                             args, scenario, 1);

  std::string skewed = good;
  skewed[4] ^= 0x7F;  // u32 version little-endian low byte
  write_file_atomic(dir, skewed);
  ok &= expect_load_rejected("version-skew", dir, fx, trace, surrogate, gamma,
                             args, scenario, 1);

  std::string badmagic = good;
  badmagic[0] = 'X';
  write_file_atomic(dir, badmagic);
  ok &= expect_load_rejected("bad-magic", dir, fx, trace, surrogate, gamma,
                             args, scenario, 1);

  std::remove(dir.c_str());
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  // Internal re-exec flags are peeled off BEFORE the standard replay
  // parser, which treats unknown flags as errors.
  bool crash_child = false;
  std::string checkpoint_path = "deepbat_crash.ckpt";
  std::uint64_t crash_seed = 23;
  std::vector<const char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--crash-child") {
      crash_child = true;
    } else if (arg == "--checkpoint" && i + 1 < argc) {
      checkpoint_path = argv[++i];
    } else if (arg == "--crash-seed" && i + 1 < argc) {
      crash_seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  bench::ReplayArgs defaults = bench::replay_defaults(0.1, 0.5);
  defaults.retrain = true;  // the recovery gate must cover the learn stack
  defaults.json_path = "BENCH_crash_recovery.json";
  const auto args = bench::parse_replay_args(
      static_cast<int>(passthrough.size()), passthrough.data(), defaults);

  if (!crash_child) {
    bench::preamble("Crash recovery — checkpoint, kill, restore, compare",
                    "a killed replay restored from its checkpoint must finish "
                    "bit-identical to the uninterrupted reference");
  }
  bench::Fixture fx;
  const double hours = std::max(args.hours, 0.25);
  const workload::Trace& serve = fx.azure(hours);
  const core::Surrogate& surrogate = fx.pretrained();
  const double gamma = fx.pretrained_gamma();

  const std::vector<std::string> scenarios =
      args.fault_scenario.empty()
          ? std::vector<std::string>{"calm", "flaky", "chaos"}
          : std::vector<std::string>{args.fault_scenario};
  const std::size_t shard_counts[] = {1, 2, 5};

  if (crash_child) {
    // The child replays exactly one (scenario, shards) cell.
    run_crash_child(fx, serve, surrogate, gamma, args, scenarios.front(),
                    args.shards, checkpoint_path, crash_seed);
  }

  const std::string self = [&] {
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) return std::string(buf, static_cast<std::size_t>(n));
    return std::string(argv[0]);
  }();

  bool all_identical = true;
  bool all_killed = true;
  struct CellRow {
    std::string scenario;
    std::size_t shards;
    bool killed;
    bool identical;
  };
  std::vector<CellRow> cells;

  for (const std::string& scenario : scenarios) {
    // Uninterrupted reference for this scenario (shard-invariant, so one
    // reference serves every shard count — divergence at any count is a
    // recovery bug either way).
    Session ref;
    build_session(ref, fx, serve, surrogate, gamma, args, scenario, 1);
    std::printf("[crash] reference replay: %s, %.2f h\n", scenario.c_str(),
                hours);
    const std::vector<sim::PlatformRun> reference = ref.runtime->run();

    for (const std::size_t shards : shard_counts) {
      std::ostringstream cmd;
      cmd << '"' << self << '"' << " --crash-child"
          << " --faults " << scenario << " --shards " << shards
          << " --hours " << hours << " --slo " << args.slo_s
          << " --interval " << args.control_interval_s
          << " --fault-seed " << args.fault_seed
          << " --retrain-seed " << args.retrain_seed
          << " --crash-seed " << crash_seed
          << " --checkpoint \"" << checkpoint_path << '"';
      if (args.retrain) cmd << " --retrain";
      std::remove(checkpoint_path.c_str());
      const int status = std::system(cmd.str().c_str());
      const bool killed =
          WIFEXITED(status) && WEXITSTATUS(status) == 9;
      if (!killed) {
        std::printf("[crash] %s/%zu: child did not die as expected "
                    "(status %d)\n",
                    scenario.c_str(), shards, status);
        all_killed = false;
        cells.push_back({scenario, shards, false, false});
        continue;
      }

      Session rec;
      build_session(rec, fx, serve, surrogate, gamma, args, scenario, shards);
      rec.runtime->restore_checkpoint(checkpoint_path);
      const std::vector<sim::PlatformRun> recovered = rec.runtime->run();

      const bool identical = bench::same_runs(
          "[crash] " + scenario + " shards=" + std::to_string(shards),
          recovered, reference);
      std::printf("[crash] %-6s shards=%zu  killed=yes  recovered=%s\n",
                  scenario.c_str(), shards,
                  identical ? "bit-identical" : "DIVERGED");
      all_identical &= identical;
      cells.push_back({scenario, shards, true, identical});
    }
  }

  // Corruption gates use the last child's checkpoint (still on disk).
  bool rejects_ok = false;
  if (all_killed) {
    rejects_ok = corruption_gates(checkpoint_path, fx, serve, surrogate,
                                  gamma, args, scenarios.back());
  }
  std::remove(checkpoint_path.c_str());

  Table t({"scenario", "shards", "killed", "recovered_identical"});
  for (const CellRow& c : cells) {
    t.add_row({c.scenario, std::to_string(c.shards), c.killed ? "yes" : "NO",
               c.identical ? "yes" : "NO"});
  }
  t.print(std::cout);

  bench::JsonReport report("crash_recovery");
  report.add("cells", t);
  report.add_scalar("all_killed", all_killed ? 1.0 : 0.0);
  report.add_scalar("all_identical", all_identical ? 1.0 : 0.0);
  report.add_scalar("corrupt_rejected", rejects_ok ? 1.0 : 0.0);
  report.set_metrics(obs::MetricsRegistry::instance().snapshot());
  report.write(args.json_path);
  bench::write_metrics_snapshot(args.metrics_path);

  const bool ok = all_killed && all_identical && rejects_ok;
  std::printf("\n[crash] %s (killed=%s, identical=%s, corrupt_rejected=%s)\n",
              ok ? "PASS" : "FAIL", all_killed ? "yes" : "NO",
              all_identical ? "yes" : "NO", rejects_ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
