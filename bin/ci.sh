#!/bin/sh
# CI check: full build, the whole test suite (which also reruns every
# `$ rushby ...` block of EXPERIMENTS.md and fails on a diff; `dune
# promote` accepts an intended change), an online-monitor smoke run
# (exit 1 on offline/online disagreement or a missed corpus mutant), the
# exhaustive mutant kill table (exit 1 if any seeded kernel bug escapes
# its predicted condition), a deterministic fault-injection smoke
# campaign (exit 1 on any separation-violating outcome), a recovery
# smoke campaign (exit 1 on any violating or non-recovered outcome, or
# on a reliable-channel differential mismatch), a coverage-guided fuzz smoke run (exit 1 on any
# condition/isolation failure or surviving mutant), a federation smoke
# run with node-fault chaos (exit 1 on an ideal-differential mismatch,
# a violating chaos outcome or an unclean shard monitor), a
# refinement-stack smoke run (exit 1 on a lockstep divergence on a clean
# kernel or a seeded bug the bisimulation fails to kill), a service-layer
# smoke run plus a short chaos soak over all four §6 services (exit 1 on
# any broken exactly-once contract, lost or duplicated effect, or unclean
# shard monitor), a parallel-determinism
# check (the -j 2 JSON reports, the recovery campaign's and the soak's
# included, must be
# byte-identical to -j 1, and so must the sampled checker's
# verify-random verdicts on three scenarios and its failing report on a
# seeded output leak, which must exit 1), a replay
# of every checked-in regression corpus case, the example programs, and
# the repository benchmark's own command (BENCHMARK.json), untraced and
# traced, with a one-second budget: one full-length round of every
# workload, each checked by its oracles (the 1M-step kernel runs against
# their seed-42 pins, the 10,000-step service runs, the chaos campaigns),
# so a change that breaks a full-length oracle, or the benchmark's build,
# fails here and not only in the 1/20-length smoke that dune runtest
# runs. This is a correctness gate: the timings it prints are not
# compared. Throughput is compared parent-vs-change on one machine, by
# running the benchmark on both.
set -eux

cd "$(dirname "$0")/.."

dune build @all
dune runtest
dune exec bin/rushby.exe -- monitor --smoke
dune exec bin/rushby.exe -- mutants
dune exec bin/rushby.exe -- inject --smoke
dune exec bin/rushby.exe -- recover --smoke
# The fuzz smoke gate is pinned to a seed where the 40-exec budget
# completes every mutant kill; at the default seed the hard
# schedule-on-foreign-state x coverage pair needs a few hundred workloads
# (the full-budget run covers it).
dune exec bin/rushby.exe -- fuzz --smoke --seed 5
dune exec bin/rushby.exe -- federate --smoke --chaos
dune exec bin/rushby.exe -- refine --smoke
dune exec bin/rushby.exe -- serve --smoke
# A short soak: sustained correlated node chaos (repeated same-shard
# crashes, flapping partitions, tamper bursts) over every §6 service.
dune exec bin/rushby.exe -- serve --steps 5000 --count 2

# Determinism across job counts: sharded parallel runs must reproduce the
# sequential reports byte for byte.
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

dune exec bin/rushby.exe -- inject --smoke -j 1 --json "$tmpdir/inject-j1.jsonl"
dune exec bin/rushby.exe -- inject --smoke -j 2 --json "$tmpdir/inject-j2.jsonl"
diff "$tmpdir/inject-j1.jsonl" "$tmpdir/inject-j2.jsonl"
dune exec bin/rushby.exe -- recover --smoke -j 1 --json "$tmpdir/recover-j1.jsonl"
dune exec bin/rushby.exe -- recover --smoke -j 2 --json "$tmpdir/recover-j2.jsonl"
diff "$tmpdir/recover-j1.jsonl" "$tmpdir/recover-j2.jsonl"
dune exec bin/rushby.exe -- fuzz --smoke --seed 5 -j 1 --json "$tmpdir/fuzz-j1.jsonl"
dune exec bin/rushby.exe -- fuzz --smoke --seed 5 -j 2 --json "$tmpdir/fuzz-j2.jsonl"
diff "$tmpdir/fuzz-j1.jsonl" "$tmpdir/fuzz-j2.jsonl"
# The assembly kernel runs as machine code on the interpreter the domains
# share, so its fuzz report is diffed across job counts too.
dune exec bin/rushby.exe -- fuzz --smoke --seed 5 --impl assembly -j 1 --json "$tmpdir/fuzz-asm-j1.jsonl"
dune exec bin/rushby.exe -- fuzz --smoke --seed 5 --impl assembly -j 2 --json "$tmpdir/fuzz-asm-j2.jsonl"
diff "$tmpdir/fuzz-asm-j1.jsonl" "$tmpdir/fuzz-asm-j2.jsonl"
dune exec bin/rushby.exe -- federate --smoke --chaos -j 1 --json "$tmpdir/fed-j1.jsonl"
dune exec bin/rushby.exe -- federate --smoke --chaos -j 2 --json "$tmpdir/fed-j2.jsonl"
diff "$tmpdir/fed-j1.jsonl" "$tmpdir/fed-j2.jsonl"
dune exec bin/rushby.exe -- refine --smoke -j 1 --json "$tmpdir/refine-j1.jsonl"
dune exec bin/rushby.exe -- refine --smoke -j 2 --json "$tmpdir/refine-j2.jsonl"
diff "$tmpdir/refine-j1.jsonl" "$tmpdir/refine-j2.jsonl"
dune exec bin/rushby.exe -- serve --smoke -j 1 --json "$tmpdir/serve-j1.jsonl"
dune exec bin/rushby.exe -- serve --smoke -j 2 --json "$tmpdir/serve-j2.jsonl"
diff "$tmpdir/serve-j1.jsonl" "$tmpdir/serve-j2.jsonl"
dune exec bin/rushby.exe -- serve --steps 5000 --count 2 -j 1 --json "$tmpdir/soak-j1.jsonl"
dune exec bin/rushby.exe -- serve --steps 5000 --count 2 -j 2 --json "$tmpdir/soak-j2.jsonl"
diff "$tmpdir/soak-j1.jsonl" "$tmpdir/soak-j2.jsonl"
# The sampled checker: verify-random walks in parallel, and its verdicts
# and minimized counterexamples must not depend on the job count.
for scenario in pipeline interrupt snfe-micro; do
  dune exec bin/rushby.exe -- verify-random --scenario "$scenario" -j 1 > "$tmpdir/vr-$scenario-j1.txt"
  dune exec bin/rushby.exe -- verify-random --scenario "$scenario" -j 2 > "$tmpdir/vr-$scenario-j2.txt"
  diff "$tmpdir/vr-$scenario-j1.txt" "$tmpdir/vr-$scenario-j2.txt"
done
for j in 1 2; do
  status=0
  dune exec bin/rushby.exe -- verify-random --scenario pipeline --bug output-leak -j "$j" \
    > "$tmpdir/vr-leak-j$j.txt" || status=$?
  [ "$status" -eq 1 ]
done
diff "$tmpdir/vr-leak-j1.txt" "$tmpdir/vr-leak-j2.txt"

# The corpus directory ships non-empty, but guard the glob anyway: an
# unexpanded pattern would otherwise reach --replay-corpus verbatim.
for case in test/corpus/*.json; do
  [ -e "$case" ] || continue
  dune exec bin/rushby.exe -- fuzz --replay-corpus "$case"
done

for ex in quickstart snfe_demo guard_demo mls_demo machine_snfe; do
  dune exec "examples/$ex.exe" > /dev/null
done

# The benchmark exits non-zero on a build failure, a raised run or an
# oracle mismatch.
bash benchmark/run.sh --seconds 1 > /dev/null
bash benchmark/run.sh --seconds 1 --traced > /dev/null
