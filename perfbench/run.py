#!/usr/bin/env python3
"""Control-plane benchmark of the DeepBAT runtime.

Usage (from the repository root):

    python3 perfbench/run.py --workload fleet_surrogate --seed 1 \
        --seconds 20 --trace 0

Builds the benchmark package (perfbench/CMakeLists.txt) into .bench_build/,
runs its self-tests, trains the bench surrogate once per source tree into
.bench_build/ (outside every timed replay), then replays the workload from
--seed for --seconds seconds and prints its metrics. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics. Each run's full record (host fingerprint, thread budget,
weights hash, decision digest, every replay) is also written to
.bench_build/results/. See perfbench/README.md for the metric definitions.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
BINARY = CMAKE_DIR / "deepbat_perf"
SELFTEST = CMAKE_DIR / "perfbench_selftest"
# Sources the bench surrogate's training depends on: the library and the
# shared bench fixture that drives it.
TRAINING_SOURCES = [ROOT / "src", ROOT / "bench" / "bench_common.cpp",
                    ROOT / "bench" / "bench_common.hpp"]
# Environment settings that would change what is trained or measured.
SCRUBBED_ENV = ["DEEPBAT_TRAIN_EPOCHS", "DEEPBAT_TRAIN_SAMPLES",
                "DEEPBAT_FORCE_RETRAIN", "DEEPBAT_CACHE_DIR", "DEEPBAT_OBS",
                "OMP_NUM_THREADS"]
RUN_TIMEOUT_S = 170
# Kernels fork an OpenMP team per calling thread. The kernel-calling
# threads (runtime executors, including the in-flight encode slot, and
# retrain workers) already take 2-3 cores of a 4-core host, and teams of two
# made the latency tails depend on host load: fleet_surrogate's p99 read
# 21.7-39 ms at two and 14.7-16.4 ms at one, at equal throughput;
# learn_flaky's per-replay p99 read 1.06-1.45 ms and 1.28-1.37 ms.
OMP_THREADS = 1


class BenchError(Exception):
    pass


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def parse_args(workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def load_benchmark_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def check_sources():
    for needed in [ROOT / "src" / "CMakeLists.txt",
                   ROOT / "bench" / "bench_common.cpp"]:
        if not needed.is_file():
            raise BenchError(f"missing {needed.relative_to(ROOT)}: run from a "
                             "checkout of the repository")


def locked(name):
    """Exclusive lock on .bench_build/<name>.lock (build and training are
    shared by every run in the checkout)."""
    BUILD.mkdir(parents=True, exist_ok=True)
    f = open(BUILD / f"{name}.lock", "w")
    fcntl.flock(f, fcntl.LOCK_EX)
    return f


def run_quiet(cmd, env=None, timeout=None):
    """Run a build step, sending its output to stderr."""
    proc = subprocess.run(cmd, env=env, timeout=timeout, stdout=sys.stderr,
                          stderr=sys.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(map(str, cmd))} exited "
                         f"{proc.returncode}")


def build():
    with locked("build"):
        if not (CMAKE_DIR / "CMakeCache.txt").is_file():
            run_quiet(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                       "-DCMAKE_BUILD_TYPE=Release"])
        run_quiet(["cmake", "--build", str(CMAKE_DIR), "-j",
                   str(host_cpus())])
    run_quiet([str(SELFTEST)])


def tree_hash(paths):
    h = hashlib.sha256()
    files = []
    for p in paths:
        files.extend(sorted(p.rglob("*")) if p.is_dir() else [p])
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def file_sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def host_cpus():
    return len(os.sched_getaffinity(0))


def base_env():
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["DEEPBAT_LOG"] = "warn"
    return env


def prepare_surrogate(env):
    """Train the bench surrogate once per training-source tree; returns the
    cache directory and the weights' SHA-256."""
    cache = BUILD / f"surrogate-{tree_hash(TRAINING_SOURCES)[:16]}"
    env = dict(env, DEEPBAT_CACHE_DIR=str(cache))
    with locked("surrogate"):
        weights = cache / "deepbat_surrogate.bin"
        gamma = cache / "deepbat_gamma_pretrained.txt"
        if not (weights.is_file() and gamma.is_file()):
            log(f"training the bench surrogate into {cache} (once)")
            run_quiet([str(BINARY), "--mode", "prepare"], env=env,
                      timeout=1200)
    return cache, file_sha256(weights)


def binary_lines(cmd, env, tag):
    proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True)
    if proc.returncode != 0:
        raise BenchError(f"deepbat_perf exited {proc.returncode}")
    out = {}
    for line in proc.stdout.splitlines():
        key, _, rest = line.partition(" ")
        if key in tag:
            out.setdefault(key, []).append(json.loads(rest))
    return out


def thread_budget(inputs, reps):
    """Threads that call kernels: each runtime executor (shards plus the
    in-flight encode slot) and each retrain worker, one OpenMP thread each.
    """
    executors = max(r["executors"] for r in reps)
    return {"cpus": host_cpus(), "executors": executors,
            "retrain_workers": inputs["retrain_workers"],
            "omp_num_threads": OMP_THREADS,
            "threads": (executors + inputs["retrain_workers"]) * OMP_THREADS}


def cpu_fingerprint():
    model, flags = "unknown", set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            key = key.strip()
            if key == "model name" and model == "unknown":
                model = value.strip()
            elif key == "flags" and not flags:
                flags = set(value.split())
    except OSError:
        pass
    return model, {f: f in flags for f in ("avx2", "avx512f", "avx512_vnni")}


def compiler_fingerprint():
    cache = {}
    for line in (CMAKE_DIR / "CMakeCache.txt").read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            cache[key.split(":")[0]] = value
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([cxx, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    flags = " ".join(filter(None, [cache.get("CMAKE_CXX_FLAGS", ""),
                                   cache.get("CMAKE_CXX_FLAGS_RELEASE", ""),
                                   "-Wall -Wextra -march=native"]))
    return cxx, version, flags


def commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def host_record(budget, source_tree):
    model, isa = cpu_fingerprint()
    cxx, version, flags = compiler_fingerprint()
    return {"cpu_model": model, "nproc": budget["cpus"], "isa": isa,
            "compiler": cxx, "compiler_version": version,
            "build_flags": flags, "build_type": "Release",
            "deepbat_obs": "unset (observability on, the default)",
            "omp_num_threads": budget["omp_num_threads"],
            "thread_budget": budget,
            "commit": commit(),
            "source_tree_sha256": source_tree}


def check_reps(workload, seed, reps, warmup, pooled, source_tree):
    """Correctness of every replay; returns (failed_reps, messages)."""
    messages = []
    reference = warmup["digest"]
    store = BUILD / f"digests-{source_tree[:16]}.json"
    with locked("digests"):
        known = json.loads(store.read_text()) if store.is_file() else {}
        key = f"{workload}:{seed}"
        if key in known and known[key] != reference:
            messages.append(f"digest {reference} differs from the "
                            f"{known[key]} an earlier run of this checkout "
                            f"recorded for seed {seed}")
        known.setdefault(key, reference)
        store.write_text(json.dumps(known, indent=1, sort_keys=True))
    failed = []
    for i, r in enumerate([warmup] + reps):
        problems = []
        if r["digest"] != reference:
            problems.append(f"digest {r['digest']} != {reference}")
        if not r["conserved"]:
            problems.append("served + dropped != offered for some tenant")
        if not r["counts_agree"]:
            problems.append("decisions, control ticks and latency samples "
                            "disagree")
        if r["traced"] and r["residual_s"] < 0:
            problems.append(f"negative residual {r['residual_s']} s")
        if problems:
            failed.append(r)
            messages.append(f"replay {i}: " + "; ".join(problems))
    if not pooled["p99_supported"]:
        messages.append(f"{pooled['latency_samples']} latency samples do not "
                        "support a p99")
    if messages and (not failed or failed[0] is warmup):
        # A cross-run digest mismatch or a bad warm-up replay (the
        # reference) fails every measured replay.
        failed = reps
    return failed, messages


def end_to_end(reps, warmup, pooled):
    first = reps[0]
    return {
        "setup_s": median([r["setup_s"] for r in reps]),
        "decisions_per_s": median([r["decisions"] / r["run_s"]
                                   for r in reps]),
        "decision_ms_p50": pooled["decision_ms_p50"],
        "decision_ms_p99": pooled["decision_ms_p99"],
        "cost_per_request_usd": first["total_cost_usd"] / first["served"],
        "slo_met_pct": 100.0 * first["served_within_slo"] / first["offered"],
        "served_pct": 100.0 * first["served"] / first["offered"],
        # The process after input generation and one replay: later
        # replays only add allocator fragmentation a user never sees.
        "peak_rss_mb": warmup["peak_rss_mb"],
    }


def ratio(num, den):
    return num / den if den else 0.0


def per_layer_one(r, inputs):
    """Per-layer metrics of one traced replay."""
    ex, wall = r["executor_s"], r["run_s"]
    m = {}

    def layer(name):
        return (r[f"{name}.calls"], r[f"{name}.items"], r[f"{name}.busy_s"],
                r[f"{name}.max_call_s"])

    for name in ("core.begin", "core.policy", "core.finish_solo",
                 "core.decide", "learn.on_tick"):
        calls, _, busy, _ = layer(name)
        m[f"{name}.calls"] = calls
        m[f"{name}.busy_pct"] = 100.0 * ratio(busy, ex)
    m["core.encoder_cache.hit_ratio"] = ratio(
        r["cache_hits"], r["cache_hits"] + r["cache_misses"])
    for name, item, flop in (
            ("core.encode", "windows", inputs["encode_flop_per_window"]),
            ("core.score", "rows", inputs["score_flop_per_row"])):
        calls, items, busy, _ = layer(name)
        m[f"{name}.calls"] = calls
        m[f"{name}.{item}"] = items
        m[f"{name}.{item}_per_call"] = ratio(items, calls)
        m[f"{name}.busy_pct"] = 100.0 * ratio(busy, ex)
        m[f"{name}.{item}_per_busy_s"] = ratio(items, busy)
        m[f"{name}.gflop_per_s"] = ratio(items * flop, busy) / 1e9
    m["core.fallback_ratio"] = ratio(r["fallbacks"], r["decisions"])
    _, _, busy, longest = layer("learn.on_tick")
    m["learn.on_tick.wall_pct"] = 100.0 * ratio(busy, wall)
    m["learn.on_tick.max_call_pct"] = 100.0 * ratio(longest, busy)
    m["learn.retrains"] = r["retrains"]
    m["learn.swaps"] = r["swaps"]
    m["learn.shadow_win_ratio"] = ratio(
        r["shadow_wins"], r["shadow_wins"] + r["shadow_losses"])
    m["learn.samples_harvested"] = r["samples_harvested"]
    m["core.surrogate_load_s"] = r["surrogate_load_s"]
    m["core.controller_build_s"] = r["controller_build_s"]
    m["sim.runtime.register_s"] = r["register_s"]
    m["sim.runtime.tick_groups"] = r["tick_groups"]
    m["sim.runtime.tenants_per_group"] = ratio(r["decisions"],
                                               r["tick_groups"])
    m["sim.runtime.executors"] = r["executors"]
    m["sim.runtime.residual_s"] = r["residual_s"]
    m["sim.runtime.residual_pct"] = 100.0 * r["residual_share"]
    m["sim.runtime.steals"] = r["steals"]
    m["sim.runtime.max_queue_depth"] = r["max_queue_depth"]
    m["sim.batch.invocations"] = r["invocations"]
    m["sim.batch.requests_served"] = r["served"]
    m["sim.batch.requests_per_invocation"] = ratio(r["served"],
                                                   r["invocations"])
    m["sim.faults.retries"] = r["retries"]
    m["sim.faults.dropped"] = r["dropped"]
    return m


def per_layer(reps, inputs):
    traced = [per_layer_one(r, inputs) for r in reps if r["traced"]]
    m = {k: median([t[k] for t in traced]) for k in traced[0]}
    plain = [r["run_s"] for r in reps if not r["traced"]]
    traced_wall = median([r["run_s"] for r in reps if r["traced"]])
    m["trace.overhead_pct"] = 100.0 * (traced_wall / median(plain) - 1.0)
    return m


def design_checks(workload, m):
    """The traced run's confirmation of why each workload exists."""
    surrogate = m["core.encode.busy_pct"] + m["core.score.busy_pct"]
    busy = 100.0 - m["sim.runtime.residual_pct"]
    checks = {
        "fleet_surrogate": [
            ("encode + score take most of the layer busy time",
             surrogate > 0.5 * busy)],
        "fleet_zipf": [
            ("encode + score take no time", surrogate == 0.0),
            ("residual >= 90% of executor time",
             m["sim.runtime.residual_pct"] >= 90.0)],
        "learn_flaky": [
            ("learn.on_tick takes most of the wall",
             m["learn.on_tick.wall_pct"] > 50.0)],
    }[workload]
    if workload != "learn_flaky":
        checks.append(("learn.on_tick takes no time",
                       m["learn.on_tick.busy_pct"] == 0.0))
    return checks


def select(metrics, declared, section):
    missing = [d["name"] for d in declared if d["name"] not in metrics]
    extra = sorted(set(metrics) - {d["name"] for d in declared})
    if missing or extra:
        raise BenchError(f"{section} metrics out of step with BENCHMARK.json:"
                         f" missing {missing}, undeclared {extra}")
    return {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
            for d in declared}


def print_table(title, metrics, notes):
    print(f"== {title}")
    width = max(len(n) for n in metrics)
    for name, m in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<{width}}  {m['value']:>16.6g} {m['unit']:<8} {note}")


def main():
    spec = load_benchmark_spec()
    args = parse_args([w["name"] for w in spec["workloads"]])
    check_sources()
    build()
    env = base_env()
    cache, weights_sha = prepare_surrogate(env)
    env.update(DEEPBAT_CACHE_DIR=str(cache), OMP_NUM_THREADS=str(OMP_THREADS))
    results_dir = BUILD / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    spans = BUILD / "spans" / f"{args.workload}.csv"
    spans.parent.mkdir(parents=True, exist_ok=True)

    out = binary_lines(
        [str(BINARY), "--mode", "run", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--spans", str(spans)],
        env, {"INPUTS", "WARMUP", "REP", "POOLED"})
    inputs, warmup, reps = out["INPUTS"][0], out["WARMUP"][0], out["REP"]
    pooled = out["POOLED"][0]
    if inputs["omp_threads"] != OMP_THREADS:
        raise BenchError(f"OpenMP runs {inputs['omp_threads']} threads, "
                         f"not {OMP_THREADS}")
    budget = thread_budget(inputs, reps)
    source_tree = tree_hash([ROOT / "src", ROOT / "bench", HERE])
    failed, problems = check_reps(args.workload, args.seed, reps, warmup,
                                  pooled, source_tree)
    plain = [r for r in reps if not r["traced"]]

    host = host_record(budget, source_tree)
    print(f"host: {host['cpu_model']}, nproc {host['nproc']}, isa "
          f"{host['isa']}, {host['compiler_version']}, flags "
          f"'{host['build_flags']}', commit {host['commit']}")
    print(f"threads: ({budget['executors']} runtime executor(s) + "
          f"{budget['retrain_workers']} retrain worker(s)) x OMP_NUM_THREADS="
          f"{budget['omp_num_threads']} = {budget['threads']} on "
          f"{budget['cpus']} cpus")
    print(f"workload {args.workload} seed {args.seed}: {inputs['tenants']} "
          f"tenants ({inputs['live_tenants']} live), {inputs['arrivals']} "
          f"arrivals over {inputs['sim_hours']:.3g} simulated h, "
          f"{len(reps)} measured replay(s) after 1 warm-up")
    print(f"weights sha256 {weights_sha}")
    print(f"decision digest {warmup['digest']}")
    if args.trace == 0:
        metrics = select(end_to_end(plain, warmup, pooled),
                         spec["end_to_end"], "end-to-end")
        n = pooled["latency_samples"]
        top = pooled["top_percentile_bp"] / 100
        notes = {"decision_ms_p50": f"(n={n} decisions, pooled)",
                 "decision_ms_p99": f"(n={n}; highest supported percentile "
                                    f"p{top:g} = "
                                    f"{pooled['decision_ms_top']:.4g} ms)"}
        print_table(f"end-to-end, median of {len(plain)} replay(s)", metrics,
                    notes)
    else:
        layer = per_layer(reps, inputs)
        metrics = select(layer, spec["per_layer"], "per-layer")
        print_table("per-layer, median of "
                    f"{sum(r['traced'] for r in reps)} traced replay(s); "
                    "FLOPs computed from tensor shapes", metrics, {})
        for what, ok in design_checks(args.workload, layer):
            print(f"design check: {what}: {'yes' if ok else 'NO'}")
        print(f"spans of the first traced replay: {spans.relative_to(ROOT)}")
    for p in problems:
        print(f"INCORRECT: {p}")

    attempted = sum(r["decisions"] for r in reps)
    result = {"correct": not problems, "attempted": attempted,
              "failed": sum(r["decisions"] for r in failed),
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, host=host,
                  weights_sha256=weights_sha, digest=warmup["digest"],
                  problems=problems, inputs=inputs, warmup=warmup, reps=reps,
                  pooled_latency=pooled)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
