#!/usr/bin/env bash
# Record what a fixed set of rushby commands prints, for a byte-for-byte
# comparison of two checkouts:
#
#   bash bin/snapshot.sh DIR
#
# run from anywhere inside a checkout. For each command it writes
# DIR/<name>.out (stdout, then a last line "exit <code>") and, when the
# command writes a JSONL report, DIR/<name>.jsonl. The only line dropped
# from stdout is "wrote <path>", since the path names DIR. Snapshot a
# parent checkout and a changed one, then compare them with
#
#   diff -r PARENT_DIR CHANGE_DIR
#
# The command set:
#   - the JSONL reports bin/ci.sh diffs across job counts, at -j 1
#     (inject, recover, fuzz on both kernels, federate, refine, serve and
#     the soak), and recover --smoke --drop 25;
#   - trace --scenario pipeline with its --trace-json record;
#   - verify --trace-json and stats --json, whose "spans" and "par"
#     records carry timings: only the exit code and every other record
#     are kept (stats prints the same timings on stdout);
#   - verify on 4 scenarios x 2 kernels x {clean, each of the 8 seeded
#     bugs}, skipping preemptive x assembly (the assembly kernel has no
#     preemption quantum);
#   - mutants and monitor --smoke;
#   - monitor on the 4 scenarios x {clean, each of the 8 seeded bugs},
#     whose summary line shows the check count past the failure cap and
#     the first violating step;
#   - verify-random on pipeline, interrupt and snfe-micro, and on
#     pipeline with the output-leak bug, whose minimized counterexample
#     ends in the "replay:" command that reruns it.
set -euo pipefail
if [ "$#" -ne 1 ]; then
  echo "usage: bash bin/snapshot.sh DIR" >&2
  exit 2
fi
mkdir -p "$1"
out="$(cd "$1" && pwd)"
cd "$(dirname "$0")/.."
dune build --display quiet ./bin/rushby.exe
rushby="$PWD/_build/default/bin/rushby.exe"

# snap NAME ARG... : run rushby with ARGs, keep stdout and the exit code
snap() {
  local name="$1"
  shift
  local status=0
  "$rushby" "$@" > "$out/$name.raw" || status=$?
  grep -v '^wrote ' "$out/$name.raw" > "$out/$name.out" || true
  rm -f "$out/$name.raw"
  echo "exit $status" >> "$out/$name.out"
}

# snap_json NAME ARG... : the same, with the JSONL report in NAME.jsonl
snap_json() {
  local name="$1"
  shift
  snap "$name" "$@" --json "$out/$name.jsonl"
}

# snap_records NAME FLAG ARG... : the exit code, and the JSONL report
# written to FLAG without its timed "spans" and "par" records
snap_records() {
  local name="$1" flag="$2"
  shift 2
  snap "$name" "$@" "$flag" "$out/$name.timed"
  tail -n 1 "$out/$name.out" > "$out/$name.exit"
  mv "$out/$name.exit" "$out/$name.out"
  grep -v '^{"kind":"\(spans\|par\)"' "$out/$name.timed" > "$out/$name.jsonl" || true
  rm -f "$out/$name.timed"
}

snap_json inject inject --smoke -j 1
snap_json recover recover --smoke -j 1
snap recover-drop25 recover --smoke --drop 25 -j 1
snap_json fuzz fuzz --smoke --seed 5 -j 1
snap_json fuzz-asm fuzz --smoke --seed 5 --impl assembly -j 1
snap_json federate federate --smoke --chaos -j 1
snap_json refine refine --smoke -j 1
snap_json serve serve --smoke -j 1
snap_json soak serve --steps 5000 --count 2 -j 1

bugs="forget-register-save partition-hole misroute-interrupt misroute-device-input
  output-leak schedule-on-foreign-state uncut-channel input-crosstalk"
for scenario in pipeline interrupt preemptive snfe-micro; do
  for impl in microcode assembly; do
    [ "$scenario/$impl" = preemptive/assembly ] && continue
    snap "verify-$scenario-$impl-clean" verify --scenario "$scenario" --impl "$impl"
    for bug in $bugs; do
      snap "verify-$scenario-$impl-$bug" verify --scenario "$scenario" --impl "$impl" --bug "$bug"
    done
  done
done

snap trace-pipeline trace --scenario pipeline --trace-json "$out/trace-pipeline.jsonl"
snap_records verify-records --trace-json verify --scenario pipeline
snap_records stats-records --json stats --scenario pipeline -j 1

snap mutants mutants
snap monitor-smoke monitor --smoke
for scenario in pipeline interrupt preemptive snfe-micro; do
  snap "monitor-$scenario-clean" monitor --scenario "$scenario"
  for bug in $bugs; do
    snap "monitor-$scenario-$bug" monitor --scenario "$scenario" --bug "$bug"
  done
done
for scenario in pipeline interrupt snfe-micro; do
  snap "verify-random-$scenario" verify-random --scenario "$scenario"
done
snap verify-random-pipeline-output-leak verify-random --scenario pipeline --bug output-leak
