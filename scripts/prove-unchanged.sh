#!/usr/bin/env bash
# Proves a refactor moved nothing: builds the parent commit's CLI under
# /root/scratch, runs it and the working tree's CLI over every surface
# whose bytes are a contract, each into its own directory, and diffs the
# two. Exits non-zero on any difference.
#
#   scripts/prove-unchanged.sh [--expect-moved <file>[,<file>...]] \
#     <parent-commit> [scratch-dir]
#
# No network, nothing installed. Failing chaos sweeps are part of the
# contract (open findings exit 2): exit codes are recorded in the
# compared files, never acted on. A bug fix names each surface it moves
# with --expect-moved (output file names, e.g.
# figure_ablation_directory.csv) and says why: those may differ, every
# changed cell of a moved CSV and every changed field of a moved JSON
# file is printed as old -> new, and every other file must still be
# byte-identical.
set -euo pipefail

moved=""
args=()
while [ $# -gt 0 ]; do
  case $1 in
    --expect-moved) moved=${2:?--expect-moved needs a comma-separated list}; shift 2 ;;
    --expect-moved=*) moved=${1#*=}; shift ;;
    *) args+=("$1"); shift ;;
  esac
done
set -- ${args[@]+"${args[@]}"}
IFS=, read -r -a moved_files <<<"$moved"

parent=${1:?usage: prove-unchanged.sh [--expect-moved <file>[,<file>...]] <parent-commit> [scratch-dir]}
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
  # The LFU family and the value-ordered FC stores at the benchmark's
  # scale: unified_schemes runs NC, SC-EC and FC-EC at a tenth of the
  # infinite cache size.
  for scheme in nc nc-ec sc sc-ec fc fc-ec; do
    keep run_full_$scheme.txt "$bin" run --scheme $scheme --cache-frac 0.1 \
      --stats-out run_full_$scheme.json full.bin full7.bin
  done
  # FC and FC-EC up to the whole universe, where their stores hold the
  # most distinct values and a write walks the furthest.
  keep sweep_full_fc.txt "$bin" sweep --schemes fc,fc-ec --fracs 0.1,0.3,0.5,0.7,0.9,1.0 \
    full.bin full7.bin

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
    # The paper's largest cluster: 1,000 clients joining, crashing,
    # departing, rejoining and splitting 70/30 (the registry rows
    # churn_1000 and churn_1000_event, here through `churn`'s flags).
    keep churn_1000_$clock.txt "$bin" churn --clients 1000 --requests 200000 --objects 5000 \
      --replication 2 --clock $clock --report-out churn_1000_$clock.json \
      --plan 'crash@20000,depart@50000,rejoin@80000,partition@100000{70|30},crash@120000,heal@150000,crash@170000,seed=7'
    # Repair-heavy: a domain failure under the proactive repair scheduler
    # at the benchmark's shape, on the trace seed that once broke its
    # books, at a slow scan budget, the benchmark's and eight times it.
    for pace in 2 8 64; do
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

  # Every committed output at its committed config, its report and its
  # CSV (a churn drill has none): the paper's eight figures, the nine
  # drills, the three scenario sweeps and the ten smoke rows. Both sides
  # run the working tree's list of rows.
  keep figure_list.txt "$bin" figure --list true
  local row fig csv
  for row in "${figures[@]}"; do
    read -r fig _ csv <<<"$row"
    keep figure_$fig.txt "$bin" figure $fig --report-out figure_$fig.json \
      ${csv:+--csv-out figure_$fig.csv}
  done
  keep chaos_sabotage.json "$bin" chaos --plans 40 --seed 42 --sabotage true --json true

  # Error paths: the message and the exit code are what a CLI refactor
  # breaks. Paths are relative so both sides print the same names.
  keep err_unknown_scheme.txt "$bin" run --scheme x t1.bin
  keep err_unknown_flag_churn.txt "$bin" churn --crahes 3
  keep err_unknown_flag_durability.txt "$bin" figure durability --replication 3
  keep err_unknown_flag_overload.txt "$bin" figure overload --ts-tc 5
  keep err_two_typos.txt "$bin" churn --zeta 1 --alpha 2
  keep err_bad_list_element.txt "$bin" sweep --fracs 0.1,nope t1.bin
  keep err_zero_ratio.txt "$bin" run --scheme sc --ts-tc 0 t1.bin
  keep err_missing_value.txt "$bin" sweep --schemes
  keep err_missing_trace.txt "$bin" run --scheme sc missing.bin
  keep err_no_traces.txt "$bin" run --scheme sc
  keep err_bad_plan.txt "$bin" churn --plan mloss=1.5
  keep err_duplicate_plan_key.txt "$bin" churn --plan seed=1,seed=2
  keep err_chaos_zero_plans.txt "$bin" chaos --plans 0
  keep err_all_one_timers.txt "$bin" gen --out all_one_timers.bin --requests 5000 \
    --objects 400 --one-timers 1
  keep err_unknown_figure.txt "$bin" figure fig6
  keep err_churn_row_csv.txt "$bin" figure churn_plan --csv-out churn_plan.csv
  keep err_flag_before_traces.txt "$bin" sweep --fracs nope
  keep err_stray_positional.txt "$bin" gen --out stray_out.bin --requests 2000 --objects 100 \
    stray.bin
  keep err_unknown_subcommand.txt "$bin" frobnicate
  keep err_removed_subcommand.txt "$bin" adversary
  keep err_help.txt "$bin" --help
}

# Prints each cell that differs between two CSVs as old -> new, rows
# matched by line and named by their first column.
csv_cells() {
  awk -F, 'NR == FNR { old[FNR] = $0; rows = FNR; next }
    { new[FNR] = $0; if (FNR > rows) rows = FNR }
    END {
      split(new[1], head, ",")
      for (r = 1; r <= rows; r++) {
        if (old[r] == new[r]) continue
        n = split(old[r], o, ","); m = split(new[r], c, ",")
        row = r == 1 ? "header" : (m ? c[1] : o[1])
        for (i = 1; i <= (n > m ? n : m); i++)
          if (o[i] != c[i]) printf "  %s, %s: %s -> %s\n", row, head[i], o[i], c[i]
      }
    }' "$1" "$2"
}

# Prints each leaf that differs between two JSON files as path: old ->
# new, with array indices in the path (runs.0.hit_ratio) and a field
# present on one side only shown as (absent). jq flattens each file to
# one "path<TAB>value" line per leaf. jq 1.6 reads numbers as doubles, so
# an integer above 2^53 prints rounded; a file whose bytes moved with no
# field differing as jq reads it says so.
json_fields() {
  local flat='paths(type != "object" and type != "array") as $p
    | "\($p | map(tostring) | join("."))\t\(getpath($p) | tojson)"'
  local fields
  fields=$(awk -F'\t' 'NR == FNR { old[$1] = $2; keys[++n] = $1; next }
    { seen[$1] = 1
      if (!($1 in old)) printf "  %s: (absent) -> %s\n", $1, $2
      else if (old[$1] != $2) printf "  %s: %s -> %s\n", $1, old[$1], $2 }
    END { for (i = 1; i <= n; i++)
      if (!(keys[i] in seen)) printf "  %s: %s -> (absent)\n", keys[i], old[keys[i]] }' \
    <(jq -r "$flat" "$1") <(jq -r "$flat" "$2"))
  echo "${fields:-  no field differs as jq reads the numbers: compare the bytes}"
}

# Every committed output, one "name json [csv]" line each, from the
# working tree's registry.
mapfile -t figures < <("$repo/target/release/webcache" figure --list true)
[ ${#figures[@]} -gt 0 ] || { echo "webcache figure --list true printed no names" >&2; exit 1; }
(surfaces "$scratch/parent-target/release/webcache" "$scratch/out-parent")
(surfaces "$repo/target/release/webcache" "$scratch/out-change")
status=0
excludes=()
for f in ${moved_files[@]+"${moved_files[@]}"}; do
  excludes+=(--exclude="$f")
  old="$scratch/out-parent/$f" new="$scratch/out-change/$f"
  if [ ! -f "$old" ] || [ ! -f "$new" ]; then
    echo "expected-moved surface $f is missing on one side" >&2
    status=1
  elif cmp -s "$old" "$new"; then
    echo "expected to move, unchanged: $f"
  else
    echo "moved: $f"
    case $f in
      *.csv) csv_cells "$old" "$new" ;;
      *.json) json_fields "$old" "$new" ;;
    esac
  fi
done
if diff -r ${excludes[@]+"${excludes[@]}"} "$scratch/out-parent" "$scratch/out-change"; then
  echo "unchanged: $(($(ls "$scratch/out-change" | wc -l) - ${#moved_files[@]})) other files identical to $parent"
else
  echo "DIFFERENT from $parent (see above)" >&2
  status=1
fi
exit $status
