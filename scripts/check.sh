#!/usr/bin/env bash
# Tier-1 verification plus sanitizer passes over the kernel and obs layers.
#
#   scripts/check.sh          # build + full ctest, then ASan + TSan stages
#   scripts/check.sh --fast   # skip the sanitizer rebuilds
#
# The ASan stage rebuilds into build-asan/ with DEEPBAT_SANITIZE=address and
# runs the nn/kernel/arena test binaries plus the obs registry, the
# fault-injection simulator (test_sim), the sharded runtime tests (whose
# faulted shard-invariance cases cover the retry/drop paths), and test_core
# (the fused grid-scoring head's padded config lanes). Being built without
# -march=native, it also checks the fused encoder's bits against the
# composed branch where no FMA is formed (test_nn_kernels'
# Kernels.FusedEncoder* cases); the TSan stage
# rebuilds into build-tsan/ and runs the obs
# tests (concurrent increments against the lock-free metric shards) plus
# test_runtime and test_common, whose WorkerPool / concurrent-shard stress
# cases are where a race in the sharded executor would surface. The TSan
# runtime stage pins OMP_NUM_THREADS=1: libgomp's barriers are opaque to
# TSan and report false positives; the WorkerPool threads (the PR 4
# concurrency under test) are plain std::threads TSan understands. The
# slow integration suite stays in the plain tier-1 run. A final run of
# bench/nn_kernels gates the kernel speedups against the committed
# bench/BASELINE_kernels.json.
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

# Bench outputs go to a private directory, removed on exit, so two
# concurrent runs of this script never overwrite each other's files.
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

echo "== tier-1: build =="
cmake -B build -S . >/dev/null
cmake --build build -j"$(nproc)"

echo "== tier-1: ctest =="
# Every case runs up to three times, all cores busy: a test that races
# another case's files or state under parallel ctest fails here, not at
# random later.
ctest --test-dir build --output-on-failure --repeat until-fail:3 -j"$(nproc)"

echo "== fleet smoke =="
# Heterogeneous fleet gate (DESIGN.md §13): grouped multi-SLO provisioning
# must beat per-tenant CPU DeepBAT on cost at no-worse attainment, stay
# bit-identical across {1,2,5} shards and reruns, and the CPU backend
# wrapper must replay bit-identically to the legacy model path.
./build/bench/fleet --hours 0.25 --fleet 8 --groups 2 --shards 2

echo "== retrain chaos smoke =="
# Online-learning gate (DESIGN.md §14): under flaky faults with --retrain
# the adaptive controller must drift-trip, retrain, shadow-win, and
# hot-swap — and the post-swap fallback rate must DROP — while the replay
# stays bit-identical solo vs sharded and across reruns (exit 1 otherwise).
./build/bench/chaos_replay --hours 0.25 --faults flaky --retrain --shards 2

echo "== crash recovery smoke =="
# Durability gate (DESIGN.md §16): replay a flaky+retraining run, kill the
# process at a seeded mid-run tick, restore from the checkpoint, and require
# the stitched result to be bit-identical to the uninterrupted reference at
# {1,2,5} shards; truncated / bit-flipped / version-skewed snapshots must be
# rejected with typed errors (exit 1 on any violation).
./build/bench/crash_recovery --hours 0.25 --faults flaky

echo "== runtime scale smoke =="
# Million-tenant runtime gate (DESIGN.md §15) at smoke size: a 10k-tenant
# Zipf population through the calendar-queue scheduler and static shards.
# Exits 1 if per-tick scheduler cost grows with the fleet (the
# pre-calendar O(tenants) scan) or if any 2-shard run diverges from the
# 1-shard replay.
./build/bench/runtime_scale --max-tenants 10000 --out "$OUT/scale.json"

if [[ "$FAST" == "1" ]]; then
  echo "== skipping sanitizer passes (--fast) =="
  exit 0
fi

echo "== asan: build =="
cmake -B build-asan -S . -DDEEPBAT_SANITIZE=address -DDEEPBAT_NATIVE=OFF \
  >/dev/null
cmake --build build-asan -j"$(nproc)" --target \
  test_nn_kernels test_nn_tensor test_nn_autograd test_nn_modules test_obs \
  test_common test_sim test_runtime test_lambda test_fleet test_learn \
  test_core

echo "== asan: run =="
for t in test_nn_kernels test_nn_tensor test_nn_autograd test_nn_modules \
         test_obs test_common test_sim test_runtime test_lambda test_fleet \
         test_learn test_core; do
  ./build-asan/tests/"$t"
done

echo "== ubsan: build =="
# UBSan over the corruption paths (DESIGN.md §16): the checkpoint and weight
# loaders chew on truncated / bit-flipped / hand-crafted-overflow inputs in
# test_sim, test_runtime, and the serialize fuzz tests — every rejection
# must be a typed error with zero UB behind it (-fno-sanitize-recover=all
# turns any finding into a hard failure).
cmake -B build-ubsan -S . -DDEEPBAT_SANITIZE=undefined -DDEEPBAT_NATIVE=OFF \
  >/dev/null
cmake --build build-ubsan -j"$(nproc)" --target \
  test_sim test_runtime test_nn_training

echo "== ubsan: run =="
./build-ubsan/tests/test_sim
./build-ubsan/tests/test_runtime
./build-ubsan/tests/test_nn_training

echo "== tsan: build =="
cmake -B build-tsan -S . -DDEEPBAT_SANITIZE=thread -DDEEPBAT_NATIVE=OFF \
  >/dev/null
cmake --build build-tsan -j"$(nproc)" --target test_obs test_common \
  test_runtime test_nn_kernels test_fleet test_learn

echo "== tsan: run =="
./build-tsan/tests/test_obs
OMP_NUM_THREADS=1 ./build-tsan/tests/test_common
# test_runtime carries the shard-schedule surface: the 6-shard overlap
# stress case (more shard threads than cores, short quanta), the parallel
# run_until() steps, and the shard-invariance and faulted-replay matrices.
OMP_NUM_THREADS=1 ./build-tsan/tests/test_runtime
# Fleet tests drive mixed CPU/GPU tenants through the sharded runtime —
# the heterogeneous-backend dispatch path under TSan.
OMP_NUM_THREADS=1 ./build-tsan/tests/test_fleet
# Online-learning loop (DESIGN.md §14): the versioned-store swap-while-
# scoring stress and the background-pool retrainer are the new concurrency
# surfaces; the adaptive E2E tests ride along.
OMP_NUM_THREADS=1 ./build-tsan/tests/test_learn
# Covers the golden fp16-weight GEMM and binary16 conversion tests
# (gemm_f16w / fp16_to_fp32 / fp32_to_fp16), the fused attention training
# step (gradcheck, fused vs composed forward and gradients, training vs
# inference bits, dropout keep-mask) and the fused inference encoder (bits
# vs the composed branch, batch independence, dispatch) under TSan's
# runtime. Filtered: the bit-identity suites set OMP thread counts
# internally, and libgomp's barriers are opaque to TSan (same false
# positives as above — OMP_NUM_THREADS=1 cannot pin an explicit
# omp_set_num_threads), hence the *AcrossThreadCounts exclusion.
OMP_NUM_THREADS=1 ./build-tsan/tests/test_nn_kernels \
  --gtest_filter='Kernels.GemmF16w*:Kernels.Fp16*:Kernels.FusedTrain*:Kernels.Dropout*:Kernels.FusedEncoder*:-Kernels.*AcrossThreadCounts'

echo "== kernel bench gate =="
# Kernel bench against the committed speedup baseline: named tall-skinny
# shapes must beat the seed kernels, 2 threads must not lose to 1, and
# same-run speedup ratios must stay within 10% of the baseline. Full mode
# (~35 s), not --quick: the short samples are too noisy for a 10% gate.
./build/bench/nn_kernels --json="$OUT/gate_kernels.json" \
  --gate=bench/BASELINE_kernels.json

echo "== all checks passed =="
