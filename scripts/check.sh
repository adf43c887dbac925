#!/usr/bin/env bash
# Full local gate: formatting, lints (warnings are errors), release
# build, and the test suite — the same bar CI holds a change to.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> no reference engine in the release binary"
# The pre-decode simulator (`gpu_sim::legacy`) is a differential-test
# reference only: tests/decoded_parity.rs plugs it into the engine
# through `TimingEval`. Nothing the front end runs may reach it.
symbols=$(nm -C target/release/gpu-autotune)
if echo "$symbols" | grep 'gpu_sim::legacy'; then
    echo "release binary links gpu_sim::legacy symbols (listed above)" >&2
    exit 1
fi

echo "==> cargo test"
cargo test -q

echo "==> cargo test --workspace"
# Every member's own tests (library unit tests, per-crate integration
# tests) — the root run above covers only the root package. The dev
# profile keeps the simulators' debug_assert!s armed (arena/source
# positional identity, frame bookkeeping).
cargo test -q --workspace

echo "==> cargo test (perfbench)"
# The benchmark harness is its own package (an empty `[workspace]` with
# path dependencies on the library crates), so the workspace steps above
# never compile it: a public API change could otherwise break the
# benchmark unnoticed.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "==> trace smoke (tune sad --trace-out/--metrics-out + validate)"
# A full-space SAD search must export a JSONL trace whose every line
# parses and a manifest that survives a serialize -> parse round trip;
# `validate` checks both in-process (the container has no jq).
tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT
cargo run --release -q -- tune sad --strategy exhaustive --jobs 2 \
    --trace-out "$tracedir/trace.jsonl" --metrics-out "$tracedir/manifest.json" \
    > /dev/null
cargo run --release -q -- validate "$tracedir/trace.jsonl" "$tracedir/manifest.json"

echo "==> trace report smoke (trace report on the exported JSONL)"
# The offline analyzer must reconstruct the run's time-resolved story
# from the trace file alone: convergence table, phase breakdown, and
# worker utilization.
report=$(cargo run --release -q -- trace report "$tracedir/trace.jsonl")
echo "$report" | head -n 1
for section in "convergence" "phases" "workers" "optimum reached after"; do
    echo "$report" | grep -q "$section" || {
        echo "trace report smoke: missing \`$section\` section" >&2
        exit 1
    }
done

echo "==> chrome trace smoke (tune sad --trace-format chrome)"
# The Chrome exporter must emit a trace_event document Perfetto can
# load: a traceEvents array with thread-name metadata.
cargo run --release -q -- tune sad --strategy exhaustive --jobs 2 \
    --trace-out "$tracedir/trace_chrome.json" --trace-format chrome > /dev/null
grep -q '"traceEvents"' "$tracedir/trace_chrome.json" || {
    echo "chrome smoke: no traceEvents array in the export" >&2
    exit 1
}
grep -q '"orchestrator"' "$tracedir/trace_chrome.json" || {
    echo "chrome smoke: no orchestrator thread-name metadata" >&2
    exit 1
}

echo "==> fault-injection smoke (table4 --inject-faults)"
# The search must complete (exit 0) in degraded mode and report a
# non-empty quarantine section.
smoke=$(cargo run --release -q -p optspace-bench --bin table4 -- \
    --jobs 2 --inject-faults)
echo "$smoke" | tail -n 1
echo "$smoke" | grep -q "^quarantined configurations: [1-9]" || {
    echo "fault-injection smoke: expected a non-empty quarantine section" >&2
    exit 1
}

echo "==> race-detector smoke (tune cp --check-races)"
# With the static race detector armed, a real application space must
# come through clean: no degraded report, no verify.race trace events.
races=$(cargo run --release -q -- tune cp --strategy exhaustive --jobs 2 \
    --check-races --trace-out "$tracedir/races.jsonl")
echo "$races" | tail -n 1
if echo "$races" | grep -q "DEGRADED"; then
    echo "race smoke: --check-races quarantined configurations on the CP space" >&2
    exit 1
fi
if grep -q "verify.race" "$tracedir/races.jsonl"; then
    echo "race smoke: unexpected verify.race event on the CP space" >&2
    exit 1
fi

echo "==> selection smoke (tune matmul --filter tile=16)"
# The declarative filter must narrow the matmul space to its 48
# tile-16 points and still find a best configuration.
filtered=$(cargo run --release -q -- tune matmul --strategy exhaustive --jobs 2 \
    --filter tile=16)
echo "$filtered" | tail -n 1
echo "$filtered" | grep -q "selection: tile=16 -> 48 of 96 configurations" || {
    echo "selection smoke: expected the tile=16 filter to keep 48 of 96 points" >&2
    exit 1
}
echo "$filtered" | grep -q "^best configuration: .*16x16" || {
    echo "selection smoke: expected a 16x16 best configuration" >&2
    exit 1
}

echo "==> lazy-vs-eager smoke (tune cp, identical stdout)"
# The lazy default and --eager must print byte-identical search output
# at the same worker count (manifests differ only in wall-clock runtime,
# so the comparison is on the deterministic report text).
cargo run --release -q -- tune cp --strategy exhaustive --jobs 4 \
    > "$tracedir/lazy.txt"
cargo run --release -q -- tune cp --strategy exhaustive --jobs 4 --eager \
    > "$tracedir/eager.txt"
diff -u "$tracedir/lazy.txt" "$tracedir/eager.txt" || {
    echo "lazy-vs-eager smoke: reports differ between instantiation paths" >&2
    exit 1
}

echo "==> branch-and-bound smoke (tune cp --strategy bnb)"
# Best-first search under the admissible bound must land on the same
# optimum exhaustive evaluation finds on the CP space, and its profile
# must show subspaces discarded without instantiation.
cargo run --release -q -- tune cp --strategy exhaustive --jobs 2 \
    > "$tracedir/cp_exhaustive.txt"
cargo run --release -q -- tune cp --strategy bnb --jobs 2 --profile \
    > "$tracedir/cp_bnb.txt"
best_exhaustive=$(grep "^best configuration:" "$tracedir/cp_exhaustive.txt")
best_bnb=$(grep "^best configuration:" "$tracedir/cp_bnb.txt")
echo "$best_bnb"
if [ "$best_exhaustive" != "$best_bnb" ]; then
    echo "bnb smoke: optimum differs from exhaustive:" >&2
    echo "  exhaustive: $best_exhaustive" >&2
    echo "  bnb:        $best_bnb" >&2
    exit 1
fi
grep -Eq "^bound-pruned subspaces +[1-9]" "$tracedir/cp_bnb.txt" || {
    echo "bnb smoke: expected bound_pruned_subspaces > 0 in the profile" >&2
    exit 1
}

echo "==> fine-grid branch-and-bound smoke (tune matmul --grid fine --strategy bnb)"
# The 102,400-point fine grid, searched by bound probes alone: aliased
# unroll corners share one probe, and each distinct program is
# simulated once per search, so this takes seconds, not minutes. The
# optimum is pinned.
fine=$(cargo run --release -q -- tune matmul --grid fine --strategy bnb --jobs 2)
echo "$fine" | grep "^best configuration:"
echo "$fine" | grep -qx "best configuration: #69694 16x16/1x4/uC/o16/pf (2.00 ms)" || {
    echo "fine bnb smoke: expected best configuration #69694 16x16/1x4/uC/o16/pf (2.00 ms)" >&2
    exit 1
}

echo "==> persistence smoke (tune sad --store-dir, warm re-run, corruption)"
# A warm store must serve every unique back as a store hit with zero
# fresh simulations; a torn segment must cost only the damaged records,
# never the run.
cargo run --release -q -- tune sad --strategy exhaustive --jobs 2 \
    --store-dir "$tracedir/store" > "$tracedir/cold.txt" 2> /dev/null
cargo run --release -q -- tune sad --strategy exhaustive --jobs 2 \
    --store-dir "$tracedir/store" --profile > "$tracedir/warm.txt" 2> /dev/null
grep -Eq "store hits +[1-9]" "$tracedir/warm.txt" || {
    echo "persistence smoke: expected store hits > 0 on the warm run" >&2
    exit 1
}
grep -Eq "sims executed +0 " "$tracedir/warm.txt" || {
    echo "persistence smoke: expected zero fresh simulations on the warm run" >&2
    exit 1
}
seg=$(ls "$tracedir/store"/*.seg | head -n 1)
truncate -s -10 "$seg"
cargo run --release -q -- store verify "$tracedir/store" | tail -n 1
cargo run --release -q -- tune sad --strategy exhaustive --jobs 2 \
    --store-dir "$tracedir/store" > "$tracedir/damaged.txt" 2> /dev/null || {
    echo "persistence smoke: run failed after segment corruption" >&2
    exit 1
}
grep "^best configuration:" "$tracedir/cold.txt" > "$tracedir/cold_best.txt"
grep "^best configuration:" "$tracedir/damaged.txt" > "$tracedir/damaged_best.txt"
diff -u "$tracedir/cold_best.txt" "$tracedir/damaged_best.txt" || {
    echo "persistence smoke: best configuration changed after corruption" >&2
    exit 1
}

echo "==> resume smoke (tune sad --checkpoint/--stop-after-units, --resume)"
# An interrupted run (exit 130, no stdout report) resumed from its
# checkpoint must print a report byte-identical to an uninterrupted run.
cargo run --release -q -- tune sad --strategy exhaustive --jobs 2 \
    > "$tracedir/uninterrupted.txt"
set +e
cargo run --release -q -- tune sad --strategy exhaustive --jobs 2 \
    --checkpoint "$tracedir/sad.ck" --stop-after-units 100 \
    > "$tracedir/interrupted.txt" 2> /dev/null
status=$?
set -e
if [ "$status" -ne 130 ]; then
    echo "resume smoke: expected exit 130 from the interrupted run, got $status" >&2
    exit 1
fi
if [ -s "$tracedir/interrupted.txt" ]; then
    echo "resume smoke: interrupted run must not print a stdout report" >&2
    exit 1
fi
cargo run --release -q -- tune sad --strategy exhaustive --jobs 2 \
    --resume "$tracedir/sad.ck" > "$tracedir/resumed.txt" 2> /dev/null
diff -u "$tracedir/uninterrupted.txt" "$tracedir/resumed.txt" || {
    echo "resume smoke: resumed report differs from the uninterrupted run" >&2
    exit 1
}

echo "==> strategy-zoo smoke (tune cp --strategy hill|anneal|genetic|surrogate)"
# Every iterative strategy must complete a small seeded search on the
# CP space and report a best configuration under its seed-bearing name.
for strategy in hill anneal genetic surrogate; do
    zoo=$(cargo run --release -q -- tune cp --strategy "$strategy" \
        --budget 12 --seed 1 --jobs 2)
    echo "$zoo" | grep -q "^best configuration:" || {
        echo "zoo smoke: --strategy $strategy found no best configuration" >&2
        exit 1
    }
    echo "$zoo" | grep -q "^strategy $strategy-12" || {
        echo "zoo smoke: --strategy $strategy report lacks its budgeted name" >&2
        exit 1
    }
done

echo "==> zoo convergence smoke (profile --app cp --convergence-out)"
# The convergence export must carry a curve for every zoo strategy
# alongside the classic three.
cargo run --release -q -p optspace-bench --bin profile -- --app cp --jobs 2 \
    --convergence-out "$tracedir/zoo_convergence.json" > /dev/null
for strategy in exhaustive pruned bnb hill anneal genetic surrogate; do
    grep -q "\"strategy\": \"$strategy\"" "$tracedir/zoo_convergence.json" || {
        echo "zoo convergence smoke: no $strategy curve in the export" >&2
        exit 1
    }
done

echo "==> cargo doc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps > /dev/null

echo "All checks passed."
