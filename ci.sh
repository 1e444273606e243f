#!/usr/bin/env bash
# Repo CI: formatting, lints, the full test suite, a smoke run of the
# staged micro-batch pipeline in both modes, and the parallel-kernel
# determinism + microbenchmark checks.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
cargo test -q --workspace
cargo build --examples --release
cargo bench --workspace --no-run

# The benchmark package (perfbench/, a Cargo workspace of its own) builds
# the library crates from source: a core API change that breaks it, or its
# committed lockfile, fails here.
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

# The API docs must build clean: broken intra-doc links or malformed
# rustdoc are errors, not warnings.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

# Static invariants (DESIGN.md § "Static invariants"): deny-by-default
# linter over the whole workspace — determinism, panic-reachability from
# the recovery roots, wall-clock taint of numerics, RNG stream
# discipline, documented unsafe, accounted device allocation. The
# human-readable run prints the call-graph stats (functions, edges,
# ambiguous call sites) on stderr.
cargo run -q -p buffalo-lint -- check

# Machine-readable gate, as its own step: the --json rendering over a
# clean workspace must be exactly the empty array (any diagnostic, or
# any schema drift on the empty output, fails here even if the exit
# code above regresses).
lint_json="$(cargo run -q -p buffalo-lint -- check --json 2>/dev/null)"
if [ "$lint_json" != "[]" ]; then
  echo "ci: buffalo-lint --json expected an empty diagnostic array, got:" >&2
  echo "$lint_json" >&2
  exit 1
fi

# The loom-model interleaving tests for the thread-pool handoff run under
# `--cfg loom` (see shims/loom — a bounded randomized-schedule stand-in
# for the real loom crate, same API).
RUSTFLAGS="--cfg loom" cargo test -q -p buffalo-par --test loom_model

# Miri over the pool's unsafe lifetime erasure, when the toolchain has it
# (graceful skip otherwise — the container may lack the miri component).
if cargo +nightly miri --version >/dev/null 2>&1; then
  cargo +nightly miri test -p buffalo-par
else
  echo "ci: skip — cargo +nightly miri unavailable"
fi

# Bad epoch-driver input is a configuration error, not a panic: the CLI
# must print it and exit non-zero.
if bad_err=$(cargo run -q --release --bin buffalo -- train cora --batch-size 0 2>&1 >/dev/null); then
  echo "ci: FAIL — train --batch-size 0 exited zero" >&2
  exit 1
fi
if grep -q 'panicked' <<<"$bad_err"; then
  echo "ci: FAIL — train --batch-size 0 panicked:" >&2
  printf '%s\n' "$bad_err" >&2
  exit 1
fi
echo "ci: train --batch-size 0 rejected without a panic"

# A standalone device that loses itself has nothing to fail over to:
# both ladders must exhaust at once with a structured error (exit 1),
# not fail over onto the dead device forever (a timeout, 124, or the OOM
# killer, 137) and not panic.
for cmd in "train cora --epochs 1 --budget 12M" "serve cora --budget 12M"; do
  code=0
  # shellcheck disable=SC2086 # $cmd is a word list on purpose
  lost_err=$(timeout 120 cargo run -q --release --bin buffalo -- $cmd --faults 'lose:0,5' 2>&1 >/dev/null) || code=$?
  if [ "$code" -eq 0 ] || [ "$code" -eq 124 ] || [ "$code" -eq 137 ]; then
    echo "ci: FAIL — single-device $cmd with lose:0,5 exited $code" >&2
    exit 1
  fi
  if ! grep -q 'recovery exhausted' <<<"$lost_err" || grep -q 'panicked' <<<"$lost_err"; then
    echo "ci: FAIL — single-device $cmd with lose:0,5 did not exhaust cleanly:" >&2
    printf '%s\n' "$lost_err" >&2
    exit 1
  fi
done
echo "ci: single-device device loss exhausts recovery for train and serve"

# The pipeline toggle must train end-to-end both ways.
cargo run -q --release --bin buffalo -- train cora --epochs 1 --budget 12M --pipeline off
cargo run -q --release --bin buffalo -- train cora --epochs 1 --budget 12M --pipeline on

# Parallel kernels must not change the numerics: the epoch table (loss,
# accuracies) has to be byte-identical between 1 and 4 threads.
t1=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M --threads 1 | grep -E '^\s+[0-9]')
t4=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M --threads 4 | grep -E '^\s+[0-9]')
if [ "$t1" != "$t4" ]; then
  echo "ci: FAIL — training diverged between --threads 1 and --threads 4" >&2
  printf 'threads=1:\n%s\nthreads=4:\n%s\n' "$t1" "$t4" >&2
  exit 1
fi
echo "ci: --threads 1 and --threads 4 epoch tables identical"

# Fault-injection smoke: a training run with injected transient faults
# must complete end-to-end under the recovery ladder.
cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M \
  --faults 'transient:p=0.1,seed=7'

# Retry-only recovery must not change the numerics: allocation happens
# before any forward/backward work, so a transient-fault run's epoch table
# (loss, accuracies) has to be byte-identical to the fault-free run.
clean=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M | grep -E '^\s+[0-9]')
faulty=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M --faults 'transient:p=0.3,seed=7' --max-retries 8 | grep -E '^\s+[0-9]')
if [ "$clean" != "$faulty" ]; then
  echo "ci: FAIL — training diverged between fault-free and transient-fault runs" >&2
  printf 'fault-free:\n%s\nfaulty:\n%s\n' "$clean" "$faulty" >&2
  exit 1
fi
echo "ci: fault-free and transient-fault epoch tables identical"

# Crash-consistency smoke: a run killed by a torn mid-snapshot crash must
# resume from the surviving ring and replay a loss trail bitwise identical
# to an uninterrupted run's (`trail` lines carry the f32 bit patterns).
ckdir=$(mktemp -d)
ref=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M \
  --checkpoint-dir "$ckdir/ref" --checkpoint-every 2 | grep '^trail')
if cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M \
  --checkpoint-dir "$ckdir/crash" --checkpoint-every 2 \
  --faults 'crash:at=4,torn=1' >/dev/null 2>&1; then
  echo "ci: FAIL — injected crash did not kill the run" >&2
  exit 1
fi
resumed=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M \
  --resume "$ckdir/crash" --checkpoint-every 2 | grep '^trail')
if [ "$ref" != "$resumed" ]; then
  echo "ci: FAIL — resumed loss trail differs from the uninterrupted run" >&2
  diff <(printf '%s\n' "$ref") <(printf '%s\n' "$resumed") >&2 || true
  exit 1
fi
rm -rf "$ckdir"
echo "ci: crash+resume loss trail bitwise identical"

# Elastic failover smoke: a 2-device pool losing device 1 mid-run must
# complete through the failover rung, report the loss, and replay a loss
# trail bitwise identical to the fault-free 2-device run (re-sharding is
# pure re-routing — see DESIGN.md § "Elastic multi-device recovery").
pool_ref=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 6M --gpus 2)
pool_lost=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 6M --gpus 2 \
  --faults 'lose:1,9')
if ! grep -q 'failover: device 1 lost' <<<"$pool_lost"; then
  echo "ci: FAIL — 2-device run with lose:1,9 reported no failover" >&2
  printf '%s\n' "$pool_lost" >&2
  exit 1
fi
if ! grep -q 'LOST' <<<"$pool_lost"; then
  echo "ci: FAIL — device summary does not mark device 1 as LOST" >&2
  printf '%s\n' "$pool_lost" >&2
  exit 1
fi
if [ "$(grep '^trail' <<<"$pool_ref")" != "$(grep '^trail' <<<"$pool_lost")" ]; then
  echo "ci: FAIL — device-loss loss trail differs from the fault-free pool run" >&2
  diff <(grep '^trail' <<<"$pool_ref") <(grep '^trail' <<<"$pool_lost") >&2 || true
  exit 1
fi
echo "ci: 2-device failover completes with a bitwise-identical loss trail"

# Golden bit-identity: the lint-driven refactors (hash containers ->
# ordered containers, unwrap -> Result on recovery paths) must not move a
# single bit of the epoch table or the checkpoint trail. The golden file
# was captured before those changes landed.
ckdir=$(mktemp -d)
bits=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M \
  --checkpoint-dir "$ckdir" --checkpoint-every 2 | grep -E '^\s+[0-9]|^trail')
rm -rf "$ckdir"
if [ "$bits" != "$(cat tests/golden/cora_epochs2_bits.txt)" ]; then
  echo "ci: FAIL — cora epoch table/trail diverged from tests/golden/cora_epochs2_bits.txt" >&2
  diff tests/golden/cora_epochs2_bits.txt <(printf '%s\n' "$bits") >&2 || true
  exit 1
fi
echo "ci: cora epoch table and trail match the pre-refactor golden bitwise"

# SIMD backends. The scalar backend is the default and must stay bitwise
# identical to the historical kernels (the same golden as above, reached
# via the explicit flag). Each vector backend gets its own golden gate:
# IEEE-754 ops (including FMA) are exactly specified, so a backend's
# trail is portable across any host that supports it. SSE currently
# coincides with scalar on this model — the SAGE mean path is axpy-only,
# and the SSE axpy (separate mul+add) is bit-equal to scalar — while AVX2
# differs through FMA contraction; both must be run-to-run deterministic.
ckdir=$(mktemp -d)
scalar_bits=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M \
  --simd scalar --checkpoint-dir "$ckdir/scalar" --checkpoint-every 2 | grep -E '^\s+[0-9]|^trail')
if [ "$scalar_bits" != "$(cat tests/golden/cora_epochs2_bits.txt)" ]; then
  echo "ci: FAIL — --simd scalar diverged from tests/golden/cora_epochs2_bits.txt" >&2
  diff tests/golden/cora_epochs2_bits.txt <(printf '%s\n' "$scalar_bits") >&2 || true
  exit 1
fi
echo "ci: --simd scalar matches the golden bitwise"
for backend in sse avx2; do
  if bits=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M \
    --simd "$backend" --checkpoint-dir "$ckdir/$backend" --checkpoint-every 2 2>/dev/null \
    | grep -E '^\s+[0-9]|^trail'); then
    if [ "$bits" != "$(cat "tests/golden/cora_epochs2_${backend}_bits.txt")" ]; then
      echo "ci: FAIL — --simd $backend diverged from tests/golden/cora_epochs2_${backend}_bits.txt" >&2
      diff "tests/golden/cora_epochs2_${backend}_bits.txt" <(printf '%s\n' "$bits") >&2 || true
      exit 1
    fi
    echo "ci: --simd $backend matches its golden bitwise"
  else
    echo "ci: skip — host CPU does not support --simd $backend"
  fi
done
rm -rf "$ckdir"

# `--simd auto` resolves to the best detected backend; whatever it picks
# must be run-to-run deterministic, byte for byte.
a1=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M --simd auto \
  | grep -E '^kernels|^\s+[0-9]')
a2=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M --simd auto \
  | grep -E '^kernels|^\s+[0-9]')
if [ "$a1" != "$a2" ]; then
  echo "ci: FAIL — --simd auto diverged between two identical runs" >&2
  printf 'run1:\n%s\nrun2:\n%s\n' "$a1" "$a2" >&2
  exit 1
fi
echo "ci: --simd auto run-to-run byte-identical ($(printf '%s' "$a1" | head -1))"

# bf16 feature storage must train end-to-end (numerics shift within the
# documented 2^-8 relative bound, so no golden here — just the smoke).
cargo run -q --release --bin buffalo -- train cora --epochs 1 --budget 12M \
  --precision bf16 --simd auto >/dev/null
echo "ci: --precision bf16 trains end-to-end"

# Serving smoke: `buffalo serve` replays a seeded trace through the same
# engine and bucket scheduler as training; two runs must produce
# byte-identical output (per-request answers, latency bits, digest).
s1=$(cargo run -q --release --bin buffalo -- serve cora --budget 12M \
  --trace 'poisson:n=64,rate=128,seed=7')
s2=$(cargo run -q --release --bin buffalo -- serve cora --budget 12M \
  --trace 'poisson:n=64,rate=128,seed=7')
if [ "$s1" != "$s2" ]; then
  echo "ci: FAIL — buffalo serve diverged between two identical runs" >&2
  diff <(printf '%s\n' "$s1") <(printf '%s\n' "$s2") >&2 || true
  exit 1
fi
echo "ci: buffalo serve replay byte-identical"

# Chaos-serve smoke: injected transient faults must not drop a single
# admitted request or move one answer bit — only latencies may change.
# The `answers:` digest folds (index, node, class) per completed request.
sc=$(cargo run -q --release --bin buffalo -- serve cora --budget 12M \
  --trace 'poisson:n=64,rate=128,seed=7' --quiet-requests 1)
sf=$(cargo run -q --release --bin buffalo -- serve cora --budget 12M \
  --trace 'poisson:n=64,rate=128,seed=7' --quiet-requests 1 \
  --faults 'transient:p=0.2,seed=11')
if ! grep -q 'admission: offered 64, completed 64, shed 0, missed 0' <<<"$sf"; then
  echo "ci: FAIL — transient-fault serve dropped admitted requests" >&2
  printf '%s\n' "$sf" >&2
  exit 1
fi
if [ "$(grep '^answers:' <<<"$sc")" != "$(grep '^answers:' <<<"$sf")" ]; then
  echo "ci: FAIL — transient-fault serve moved the answers digest" >&2
  printf 'fault-free: %s\nfaulty:     %s\n' \
    "$(grep '^answers:' <<<"$sc")" "$(grep '^answers:' <<<"$sf")" >&2
  exit 1
fi
echo "ci: chaos serve (transient faults) completes all requests, answers identical"

# Device-loss serve smoke: a 2-device pool losing device 1 mid-run must
# fail over, mark the member LOST, and still answer identically to the
# single-device fault-free run.
sl=$(cargo run -q --release --bin buffalo -- serve cora --budget 12M \
  --trace 'poisson:n=64,rate=128,seed=7' --quiet-requests 1 \
  --gpus 2 --faults 'lose:1,2')
if ! grep -q 'failover: dispatch .*device 1 lost' <<<"$sl"; then
  echo "ci: FAIL — 2-device serve with lose:1,2 reported no failover" >&2
  printf '%s\n' "$sl" >&2
  exit 1
fi
if ! grep -q 'LOST' <<<"$sl"; then
  echo "ci: FAIL — serve device summary does not mark device 1 as LOST" >&2
  printf '%s\n' "$sl" >&2
  exit 1
fi
if [ "$(grep '^answers:' <<<"$sc")" != "$(grep '^answers:' <<<"$sl")" ]; then
  echo "ci: FAIL — device-loss serve moved the answers digest" >&2
  printf 'fault-free: %s\nlossy:      %s\n' \
    "$(grep '^answers:' <<<"$sc")" "$(grep '^answers:' <<<"$sl")" >&2
  exit 1
fi
echo "ci: chaos serve (device loss) fails over with identical answers"

# Kernel microbenchmarks (without --write-bench this prints the table but
# leaves the committed BENCH_kernels.json untouched).
cargo run -q --release -p buffalo-bench --bin figures -- kernels --quick

# The serving experiment must run end-to-end (table only; the committed
# BENCH_serving.json is regenerated with --write-bench).
cargo run -q --release -p buffalo-bench --bin figures -- serving --quick

# The serving chaos experiment must run end-to-end (table only; the
# committed BENCH_serving_chaos.json is regenerated with --write-bench).
cargo run -q --release -p buffalo-bench --bin figures -- serving-chaos --quick

# The device-loss failover experiment must run end-to-end (table only;
# the committed BENCH_failover.json is regenerated with --write-bench).
cargo run -q --release -p buffalo-bench --bin figures -- failover --quick

echo "ci: all checks passed"
