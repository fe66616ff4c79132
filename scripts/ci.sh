#!/usr/bin/env bash
# The body of each CI step that runs the tests or the program end to end,
# runnable offline from a checkout:
#
#   scripts/ci.sh tier1 | criterion4 | demos | readme | configs | cold-start | perfbench | bench
#
# A step exits non-zero at its first failed check.  It calls the `memlab`
# console script when that is on PATH and `python -m memlab` otherwise, and
# puts the checkout's src/ first on PYTHONPATH, so no install is needed.
set -e
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
if command -v memlab > /dev/null; then
  memlab=(memlab)
else
  memlab=(python -m memlab)
fi

case "$1" in
  # the Tier-1 suite (ROADMAP.md) without criterion 4, which fails on purpose:
  # gap(L=3)/gap(L=2) = 1.355 lies outside its window (ROADMAP open items)
  tier1)
    python -m pytest -q --continue-on-collection-errors --durations=10 \
      --deselect tests/test_acceptance.py::test_criterion_04_gap_size_independence
    ;;
  # criterion 4 alone, kept as written; its step in CI may fail
  criterion4)
    python -m pytest -q tests/test_acceptance.py::test_criterion_04_gap_size_independence
    ;;
  # any warning a demo raises fails the step, as in Tier-1
  demos)
    for demo in demos/*.py; do
      echo "== $demo"
      python -W error "$demo"
    done
    ;;
  # every ```python block of README.md, in order, so an API change cannot
  # leave the Quick start broken; a warning fails the step
  readme)
    python -W error - <<'EOF'
import pathlib
import re
text = pathlib.Path("README.md").read_text()
blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
assert blocks, "README.md has no python blocks"
for i, code in enumerate(blocks, 1):
    print(f"== README.md python block {i}")
    exec(compile(code, f"README.md python block {i}", "exec"), {})
EOF
    ;;
  # every shipped config, at one, two and three workers: the CSV bodies
  # must match (three workers split fluctuation's 2000 trajectories
  # 666/667/667, so chunk boundaries fall unevenly), and the one-worker
  # body must equal the published one under results/.  Every ensemble
  # reaches its sampler in lists of at most 1024 tapes: 1100 lifetimes
  # cross that list at one worker and split 366/367/367 at three, once
  # for the mean-field walk, once for the ring's one-at-a-time loop and
  # once for the toric code, whose sampler tables and decoder caches
  # live per process and must not depend on how trajectories are chunked
  configs)
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' EXIT
    for config in configs/*.json; do
      echo "== $config"
      name="$out/$(basename "$config" .json)"
      "${memlab[@]}" run "$config" --workers 1 --override "output=$name.w1.csv"
      cmp "$name.w1.csv" "results/$(basename "$config" .json).csv"
      for workers in 2 3; do
        "${memlab[@]}" run "$config" --workers "$workers" --override "output=$name.w$workers.csv"
        cmp "$name.w1.csv" "$name.w$workers.csv"
      done
    done
    # the published toric-code gaps, digit for digit (csv writes CRLF rows)
    tr -d '\r' < "$out/gap_scan.w1.csv" | grep -Fx 'Kitaev2D,2,1.0,0.6353412217602662'
    tr -d '\r' < "$out/gap_scan.w1.csv" | grep -Fx 'Kitaev2D,3,1.0,0.8611141299291463'
    for model in IsingMeanField Ising1D; do
      for workers in 1 3; do
        "${memlab[@]}" run configs/ising_lifetime.json --workers "$workers" \
          --override "model=$model" --override n_traj=1100 \
          --override "output=$out/$model.1100.w$workers.csv"
      done
      cmp "$out/$model.1100.w1.csv" "$out/$model.1100.w3.csv"
    done
    for workers in 1 3; do
      "${memlab[@]}" run configs/kitaev_lifetime.json --workers "$workers" \
        --override 'sizes=[4]' --override n_traj=1100 \
        --override "output=$out/Kitaev2D.1100.w$workers.csv"
    done
    cmp "$out/Kitaev2D.1100.w1.csv" "$out/Kitaev2D.1100.w3.csv"
    # a three-word seed (2**64 + 5) through the tapes' hash, at chunk
    # offsets 0, 366 and 733 and across the 1024-tape list at one worker
    for workers in 1 3; do
      "${memlab[@]}" run configs/fluctuation.json --workers "$workers" \
        --override seed=18446744073709551621 --override n_traj=1100 \
        --override "output=$out/fluctuation.1100.w$workers.csv"
    done
    cmp "$out/fluctuation.1100.w1.csv" "$out/fluctuation.1100.w3.csv"
    ;;
  # a Monte Carlo lifetime run must not pay for importing scipy, and the
  # ledgers (a panel-quadrature master solve) must not bring back an
  # adaptive solver
  cold-start)
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' EXIT
    for run in "ising_lifetime n_traj=5" "kitaev_lifetime n_traj=4" "szilard_scan" \
               "cycle_scan" "fluctuation n_traj=50" "toolkit_check n_samples=200"; do
      set -- $run
      config="$1"
      shift
      overrides=()
      for kv in "$@"; do overrides+=(--override "$kv"); done
      PYTHONPROFILEIMPORTTIME=1 "${memlab[@]}" run "configs/$config.json" "${overrides[@]}" \
        --override "output=$out/$config.csv" 2> "$out/$config.imports.log"
      if grep scipy "$out/$config.imports.log"; then
        echo "$config imported scipy"
        exit 1
      fi
    done
    ;;
  # the benchmark's own tests
  perfbench)
    python -m pytest perfbench -q
    ;;
  # one traced pass of each benchmark workload: the tracer reads the
  # signatures of the functions it wraps, so a change to one of them shows
  # only here; run.py exits 0 either way, so its last line must read correct
  bench)
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' EXIT
    for workload in ising-passage toric-memory exact-ledgers; do
      echo "== $workload"
      python perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 1 \
        | tee "$out/$workload.out"
      tail -n 1 "$out/$workload.out" | grep -q '"correct": true'
    done
    ;;
  *)
    echo "usage: scripts/ci.sh tier1|criterion4|demos|readme|configs|cold-start|perfbench|bench" >&2
    exit 2
    ;;
esac
