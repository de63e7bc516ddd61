#!/usr/bin/env bash
# Proves a refactor moved nothing: builds the parent commit's CLI under
# /root/scratch, runs it and the working tree's CLI over every surface
# whose bytes are a contract, each into its own directory, and diffs the
# two. Exits non-zero on any difference.
#
#   scripts/prove-unchanged.sh <parent-commit> [scratch-dir]
#
# No network, nothing installed. Failing chaos sweeps are part of the
# contract (open findings exit 2): exit codes are recorded in the
# compared files, never acted on. A bug fix lists each file that
# differs and says why.
set -euo pipefail

parent=${1:?usage: prove-unchanged.sh <parent-commit> [scratch-dir]}
scratch=${2:-/root/scratch}
repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
mkdir -p "$scratch"

if [ ! -d "$scratch/parent/.git" ]; then
  git clone -q "$repo" "$scratch/parent"
fi
git -C "$scratch/parent" fetch -q "$repo"
git -C "$scratch/parent" checkout -q "$parent"
(cd "$scratch/parent" && CARGO_TARGET_DIR="$scratch/parent-target" \
  cargo build --release --offline -q -p webcache-cli)
(cd "$repo" && cargo build --release --offline -q -p webcache-cli)

# Runs "$@", keeping stdout, stderr and the exit code in $out.
keep() {
  local out=$1
  shift
  local code=0
  "$@" >"$out" 2>&1 || code=$?
  echo "exit $code" >>"$out"
}

surfaces() { # $1 = binary, $2 = output directory
  local bin=$1
  rm -rf "$2" && mkdir -p "$2" && cd "$2"

  # Traces come from the binary under test, so `gen` is compared too.
  keep gen1.txt "$bin" gen --out t1.bin --requests 100000 --objects 5000 --seed 1
  keep gen2.txt "$bin" gen --out t2.bin --requests 100000 --objects 5000 --seed 2
  keep gen_ucb.txt "$bin" gen --model ucb --out ucb.bin --requests 200000 --objects 2000 --fresh 500
  keep gen_ucb7.txt "$bin" gen --model ucb --out ucb7.bin --requests 200000 --objects 2000 \
    --fresh 500 --seed 7
  # The benchmark's scale (1 M requests over 10 k objects) and the knob
  # extremes: a stack as deep as the multi-ref set with flat popularity,
  # no one-timers and one client; a 5 % stack with 90 % one-timers.
  keep gen_full.txt "$bin" gen --out full.bin --requests 1000000 --objects 10000
  keep gen_full7.txt "$bin" gen --out full7.bin --requests 1000000 --objects 10000 --seed 7
  keep gen_deep.txt "$bin" gen --out deep.bin --requests 200000 --objects 5000 \
    --stack 1 --one-timers 0 --alpha 0 --clients 1
  keep gen_shallow.txt "$bin" gen --out shallow.bin --requests 200000 --objects 5000 \
    --stack 0.05 --one-timers 0.9 --alpha 1
  keep stats.txt "$bin" stats t1.bin ucb.bin

  for scheme in nc nc-ec sc sc-ec fc fc-ec hier-gd; do
    keep run_$scheme.txt "$bin" run --scheme $scheme --cache-frac 0.2 \
      --stats-out run_$scheme.json t1.bin t2.bin
  done
  keep run_hier-gd_event.txt "$bin" run --scheme hier-gd --cache-frac 0.2 --clock event \
    --stats-out run_hier-gd_event.json t1.bin t2.bin
  keep sweep.txt "$bin" sweep --schemes sc,fc-ec,hier-gd --fracs 0.1,0.5 t1.bin t2.bin
  # The same grid on one thread and on four: the sweep pool's serial and
  # parallel paths must print the same bytes.
  for threads in 1 4; do
    keep sweep_t$threads.txt env WEBCACHE_THREADS=$threads "$bin" sweep \
      --schemes sc,fc-ec,hier-gd --fracs 0.1,0.5 t1.bin t2.bin
  done
  # The proxy greedy-dual at the benchmark's scale: a small and a full
  # proxy in both clocks, and a 1,000-client cluster.
  for frac in 0.1 1.0; do
    for clock in compat event; do
      keep run_full_${frac}_$clock.txt "$bin" run --scheme hier-gd --cache-frac $frac \
        --clock $clock --stats-out run_full_${frac}_$clock.json full.bin full7.bin
    done
  done
  keep run_full_c1000.txt "$bin" run --scheme hier-gd --cache-frac 0.1 --clients 1000 \
    --stats-out run_full_c1000.json full.bin full7.bin
  # The LFU family at the benchmark's scale: unified_schemes runs NC,
  # SC-EC and FC-EC at a tenth of the infinite cache size.
  for scheme in nc nc-ec sc sc-ec fc-ec; do
    keep run_full_$scheme.txt "$bin" run --scheme $scheme --cache-frac 0.1 \
      --stats-out run_full_$scheme.json full.bin full7.bin
  done

  for clock in compat event; do
    keep explain_$clock.txt "$bin" explain --cache-frac 0.2 --clock $clock \
      --stats-out explain_$clock.json --events-out explain_$clock.csv t1.bin t2.bin

    # The benchmark's five plans at the benchmark's shape.
    for plan in "$repo"/benchmark/plans/*.plan; do
      local name
      name=$(basename "$plan" .plan)
      keep churn_${name}_$clock.txt "$bin" churn --plan "$(cat "$plan")" \
        --requests 200000 --objects 5000 --clients 128 --replication 2 \
        --audit-rate 0.3 --clock $clock --report-out churn_${name}_$clock.json
    done
    # The CI drill and the verify skill's drill.
    keep churn_ci_$clock.txt "$bin" churn --crashes 10 --loss 0.01 --seed 2003 \
      --clock $clock --report-out churn_ci_$clock.json
    keep churn_skill_$clock.txt "$bin" churn --requests 20000 --clock $clock \
      --plan 'crash@500,depart@900,mloss=0.05,dup=0.05,reorder=0.05,corrupt=0.02,seed=99' \
      --report-out churn_skill_$clock.json
    # Repair-heavy: a domain failure under the proactive repair scheduler
    # at the benchmark's shape, on the trace seed that once broke its
    # books, at the benchmark's scan budget and at eight times it.
    for pace in 8 64; do
      keep churn_repair${pace}_$clock.txt "$bin" churn \
        --plan "domainfail@50000:3,domains=8,repair=$pace,seed=103" \
        --requests 200000 --objects 5000 --clients 128 --replication 2 \
        --trace-seed 1279518340424449214 --clock $clock \
        --report-out churn_repair${pace}_$clock.json
    done

    for forced in base partition adversary flash burst; do
      local flag=""
      [ $forced != base ] && flag="--$forced-prob 1"
      keep chaos_${forced}_$clock.json "$bin" chaos --plans 200 --seed 42 $flag \
        --clock $clock --json true
    done
  done
  keep churn_ci_default.txt "$bin" churn --crashes 10 --loss 0.01 --seed 2003 \
    --report-out churn_ci_default.json

  for scenario in adversary overload durability; do
    keep $scenario.txt "$bin" $scenario \
      --report-out $scenario.json --csv-out $scenario.csv
  done
  # Off-default durability: k = 3 and a slow scan budget.
  keep durability_k3.txt "$bin" durability --bursts 4,16 --ks 2,3 --repair 2 --clock event \
    --report-out durability_k3.json --csv-out durability_k3.csv
  keep chaos_sabotage.json "$bin" chaos --plans 40 --seed 42 --sabotage true --json true

  # Error paths: the message and the exit code are what a CLI refactor
  # breaks. Paths are relative so both sides print the same names.
  keep err_unknown_scheme.txt "$bin" run --scheme x t1.bin
  keep err_unknown_flag_churn.txt "$bin" churn --crahes 3
  keep err_unknown_flag_durability.txt "$bin" durability --replication 3
  keep err_unknown_flag_overload.txt "$bin" overload --ts-tc 5
  keep err_two_typos.txt "$bin" adversary --zeta 1 --alpha 2
  keep err_empty_grid.txt "$bin" adversary --fracs 0
  keep err_bad_list_element.txt "$bin" durability --bursts nope
  keep err_zero_ratio.txt "$bin" run --scheme sc --ts-tc 0 t1.bin
  keep err_missing_value.txt "$bin" sweep --schemes
  keep err_missing_trace.txt "$bin" run --scheme sc missing.bin
  keep err_no_traces.txt "$bin" run --scheme sc
  keep err_bad_plan.txt "$bin" churn --plan mloss=1.5
  keep err_duplicate_plan_key.txt "$bin" churn --plan seed=1,seed=2
  keep err_chaos_zero_plans.txt "$bin" chaos --plans 0
  keep err_all_one_timers.txt "$bin" gen --out all_one_timers.bin --requests 5000 \
    --objects 400 --one-timers 1
  keep err_unknown_subcommand.txt "$bin" frobnicate
  keep err_help.txt "$bin" --help
}

(surfaces "$scratch/parent-target/release/webcache" "$scratch/out-parent")
(surfaces "$repo/target/release/webcache" "$scratch/out-change")
if diff -r "$scratch/out-parent" "$scratch/out-change"; then
  echo "unchanged: $(ls "$scratch/out-change" | wc -l) files identical to $parent"
else
  echo "DIFFERENT from $parent (see above)" >&2
  exit 1
fi
