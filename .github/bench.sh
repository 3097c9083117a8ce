#!/usr/bin/env bash
# The one reducer of benchmark runs: the CI bench job compares base and
# head with it, and a PR appends its lines to BENCH_trajectory.jsonl with
# it (docs/PERFORMANCE.md, "Trajectory and CI gate"). Needs bash, jq, go.
# Run it from the root of the checkout to measure, which need not be the
# one this file is in: CI measures the base commit with head's copy.
#
#   .github/bench.sh line <workload> [runs]
#       Runs `bash bench/run.sh --workload <workload> --seed 1 --seconds 20`
#       [runs] times (default 5) untraced and once traced, and prints one
#       JSON line: quartiles of every end-to-end metric over the untraced
#       runs, and the non-zero counts of the traced one. The workload
#       `scale` is the root BenchmarkBatchThroughputScale instead (the
#       1M-job/10k-node pin), its jobs/s reported as work_per_s so that
#       BENCHMARK.json's one table of bounds covers it too.
#   .github/bench.sh gate <base> <head>
#       Compares each line of <head> with the last line of <base> for
#       the same workload. Exits 1 if a median of head is worse than
#       base's by more than the bound BENCHMARK.json gives that metric,
#       or more ops failed. The two must come from the same machine in
#       the same hour: there is no absolute floor and no committed
#       figure to compare with.
set -euo pipefail

line() {
  local workload=${1:?workload} runs=${2:-5} seed=1 seconds=20 untraced traced
  if [ "$workload" = scale ]; then
    # One result line per iteration, in the shape bench/run.sh prints
    # (a job that does not end Done fails the benchmark, and this script
    # with it). Its mix is seed 1 too; it has no window to size.
    seconds=null
    untraced=$(go test -run '^$' -bench 'BatchThroughputScale$' -benchtime=1x -count "$runs" -timeout 60m . |
      tee /dev/stderr |
      awk '{ for (i = 2; i < NF; i++) if ($(i + 1) == "jobs/s")
               printf "{\"failed\":0,\"metrics\":{\"work_per_s\":{\"value\":%s,\"unit\":\"1/s\"}}}\n", $i }')
    traced='{"metrics":{}}'
  else
    run() { bash bench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$1" | tail -n 1; }
    untraced=$(for _ in $(seq "$runs"); do run 0; done)
    traced=$(run 1)
  fi
  jq -cn --arg workload "$workload" --argjson seed "$seed" --argjson seconds "$seconds" --argjson want "$runs" \
    --arg pr "$(sed -n '1s/^# ISSUE \([0-9][0-9]*\).*/\1/p' ISSUE.md 2>/dev/null)" \
    --arg parent "$(git rev-parse --short HEAD 2>/dev/null)" \
    --argjson traced "$traced" --slurpfile runs <(printf '%s\n' "$untraced") '
    def quantile(p): sort as $s | ((length - 1) * p) as $x | ($x | floor) as $i
      | $s[$i] + (($s[$i + 1] // $s[$i]) - $s[$i]) * ($x - $i);
    if ($runs | length) != $want then error("\($runs | length) result lines from \($want) runs") else . end
    | { pr: ($pr | tonumber? // null), parent: $parent, workload: $workload, seed: $seed, seconds: $seconds,
        runs: $want, failed: ($runs | map(.failed) | add),
        metrics: ($runs[0].metrics | with_entries(.key as $k | ($runs | map(.metrics[$k].value)) as $v
          | .value = {q1: ($v | quantile(0.25)), median: ($v | quantile(0.5)), q3: ($v | quantile(0.75)), unit: .value.unit})),
        counts: ($traced.metrics | with_entries(select((.value.unit == "count" or .value.unit == "B") and .value.value != 0)
          | .value = .value.value)) }'
}

gate() {
  jq -rn --slurpfile bench BENCHMARK.json --slurpfile base "${1:?base}" --slurpfile head "${2:?head}" '
    [ $head[] as $h | ($base | map(select(.workload == $h.workload)) | last) as $b
      | if $b == null then error("no line for \($h.workload) in base") else . end
      | ( $bench[0].end_to_end[] | . as $m | select($b.metrics[$m.name] and $h.metrics[$m.name])
          | $b.metrics[$m.name].median as $x | $h.metrics[$m.name].median as $y
          | (if $x == 0 then 0 elif $m.better == "lower" then ($y - $x) / $x else ($x - $y) / $x end) as $worse
          | { ok: ($worse <= $m.bound),
              row: "\($h.workload)\t\($m.name)\t\($x)\t\($y)\t\($worse * 1000 | round / 10)% worse, bound \($m.bound * 100)%" } ),
        { ok: ($h.failed <= $b.failed), row: "\($h.workload)\tfailed ops\t\($b.failed)\t\($h.failed)" } ]
    | (.[] | (if .ok then "ok\t" else "FAIL\t" end) + .row),
      (if all(.ok) then empty else "head is worse than base beyond a bound\n" | halt_error(1) end)'
}

case "${1-}" in
line) line "${@:2}" ;;
gate) gate "${@:2}" ;;
*) sed -n '2,/^set /{/^set /d;s/^# \{0,1\}//;p}' "$0" >&2; exit 2 ;;
esac
