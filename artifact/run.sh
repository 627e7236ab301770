#!/usr/bin/env bash
# Reproducibility artifact runner for the PODC 2022 landscape
# reproduction. One script regenerates everything EXPERIMENTS.md and
# the BENCH_*.json series record, and runs the fixed-seed differential
# fuzz sweep that proves every engine configuration byte-identical.
#
#   artifact/run.sh            full run: tests + all experiments + fuzz
#   artifact/run.sh --smoke    bounded CI-sized run: build + fuzz sweep
#                              + classifier spot checks (minutes, no
#                              million-node benches)
#
# Outputs land in artifact/out/:
#   experiments.log        raw E1..E16 + Figure-1 + Bechamel output —
#                          the source of every EXPERIMENTS.md row
#   BENCH_SUBSTRATE.json   freshly measured bench points (same schema
#   BENCH_FAULT.json       as the recorded series at the repo root;
#                          timings move, booleans/gates must not)
#   fuzz_a.jsonl ...       stable fuzz reports (byte-diffed here)
#   injected-repros/       minimized repros from the negative control
#
# The fuzz sweep is the determinism gate: two identical-seed runs and a
# run under LCL_WORKERS=3 LCL_DOMAINS=4 must produce byte-identical
# reports, and an injected divergence must shrink to a repro file that
# `lcl_tool fuzz --replay` rejects with a non-zero exit.
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=0
for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE=1 ;;
    *) echo "usage: artifact/run.sh [--smoke]" >&2; exit 2 ;;
  esac
done

OUT=artifact/out
rm -rf "$OUT"
mkdir -p "$OUT"

say() { echo "== $* ==" >&2; }

say "build"
dune build
TOOL=./_build/default/bin/lcl_tool.exe

fuzz_sweep() {
  local cases="$1"
  say "fuzz sweep: seed 42, $cases cases, full oracle matrix + serve leg"
  "$TOOL" fuzz --seed 42 --cases "$cases" \
    --repro-dir "$OUT/fuzz-repros" > "$OUT/fuzz_a.jsonl"
  "$TOOL" fuzz --seed 42 --cases "$cases" \
    --repro-dir "$OUT/fuzz-repros" > "$OUT/fuzz_b.jsonl"
  cmp "$OUT/fuzz_a.jsonl" "$OUT/fuzz_b.jsonl"
  LCL_WORKERS=3 LCL_DOMAINS=4 "$TOOL" fuzz --seed 42 --cases "$cases" \
    --repro-dir "$OUT/fuzz-repros" > "$OUT/fuzz_w3.jsonl"
  cmp "$OUT/fuzz_a.jsonl" "$OUT/fuzz_w3.jsonl"
  echo "fuzz report byte-identical across runs and worker counts" >&2

  say "fuzz negative control: injected divergence -> minimized repro -> replay"
  local rc=0
  "$TOOL" fuzz --seed 42 --cases 2 --no-serve --inject-break workers3 \
    --repro-dir "$OUT/injected-repros" \
    > "$OUT/fuzz_injected.jsonl" 2> "$OUT/fuzz_injected.log" || rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "injected-break run should exit 1, got $rc" >&2; exit 1
  fi
  local replayed=0
  for r in "$OUT"/injected-repros/*.lclfuzz; do
    [ -e "$r" ] || { echo "no repro emitted" >&2; exit 1; }
    rc=0
    "$TOOL" fuzz --replay "$r" >> "$OUT/fuzz_replay.jsonl" || rc=$?
    if [ "$rc" -ne 1 ]; then
      echo "replay of $r should exit 1 (reproduces), got $rc" >&2; exit 1
    fi
    replayed=$((replayed + 1))
  done
  echo "replayed $replayed minimized repro(s): all reproduce" >&2
}

classify_spot_check() {
  say "classifier spot check: replay + byte-stable JSON"
  for name in 3-coloring sinkless-orientation mis; do
    "$TOOL" classify --replay "$name" > /dev/null
    "$TOOL" classify --json "$name" > "$OUT/classify-$name.json"
    "$TOOL" classify --json "$name" > "$OUT/classify-rerun.json"
    cmp "$OUT/classify-$name.json" "$OUT/classify-rerun.json"
  done
  rm -f "$OUT/classify-rerun.json"
}

if [ "$SMOKE" -eq 1 ]; then
  fuzz_sweep 10
  classify_spot_check
  say "smoke run complete; outputs in $OUT/"
  exit 0
fi

say "test suite"
dune runtest

# The full experiment sweep. bench/main.exe runs E14 (the forking
# cluster section) first on its own, then everything else. The raw log
# is the source of every EXPERIMENTS.md row; the machine-readable
# {"bench":...} lines are split into per-series files matching the
# recorded BENCH_*.json at the repo root (BENCH_OBS.json and the
# "substrate" points of BENCH_SUBSTRATE.json are history: no section
# prints them any more).
say "experiments E1..E16 + Figure 1 + Bechamel (this takes a while)"
dune exec bench/main.exe 2>&1 | tee "$OUT/experiments.log"

grep -h '^{"bench":"cluster"' "$OUT/experiments.log" \
  > "$OUT/BENCH_SUBSTRATE.json" || true
grep -h '^{"bench":"fault-overhead"\|^{"bench":"serve-robustness"' \
  "$OUT/experiments.log" > "$OUT/BENCH_FAULT.json" || true
say "bench points: $(cat "$OUT"/BENCH_*.json | wc -l) lines across 2 series"

fuzz_sweep 50
classify_spot_check

say "full artifact run complete; outputs in $OUT/"
