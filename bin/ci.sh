#!/bin/sh
# CI check: full build, the whole test suite, an online-monitor smoke run
# (exit 1 on offline/online disagreement or a missed corpus mutant), a
# deterministic fault-injection smoke campaign (exit 1 on any
# separation-violating outcome), a recovery smoke campaign (exit 1 on any
# violating or non-recovered outcome, or on a reliable-channel
# differential mismatch), a coverage-guided fuzz smoke run (exit 1 on any
# condition/isolation failure or surviving mutant), a federation smoke
# run with node-fault chaos (exit 1 on an ideal-differential mismatch,
# a violating chaos outcome or an unclean shard monitor), a
# refinement-stack smoke run (exit 1 on a lockstep divergence on a clean
# kernel or a seeded bug the bisimulation fails to kill), a service-layer
# smoke run plus a short chaos soak over all four §6 services (exit 1 on
# any broken exactly-once contract, lost or duplicated effect, or unclean
# shard monitor), a parallel-determinism
# check (the -j 2 JSON reports must be byte-identical to -j 1), a replay
# of every checked-in regression corpus case, and the example programs.
# The performance gate is the repository benchmark (BENCHMARK.json), run
# parent-vs-change on one machine, not a step here.
set -eux

cd "$(dirname "$0")/.."

dune build @all
dune runtest
dune exec bin/rushby.exe -- monitor --smoke
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
dune exec bin/rushby.exe -- fuzz --smoke --seed 5 -j 1 --json "$tmpdir/fuzz-j1.jsonl"
dune exec bin/rushby.exe -- fuzz --smoke --seed 5 -j 2 --json "$tmpdir/fuzz-j2.jsonl"
diff "$tmpdir/fuzz-j1.jsonl" "$tmpdir/fuzz-j2.jsonl"
dune exec bin/rushby.exe -- federate --smoke --chaos -j 1 --json "$tmpdir/fed-j1.jsonl"
dune exec bin/rushby.exe -- federate --smoke --chaos -j 2 --json "$tmpdir/fed-j2.jsonl"
diff "$tmpdir/fed-j1.jsonl" "$tmpdir/fed-j2.jsonl"
dune exec bin/rushby.exe -- refine --smoke -j 1 --json "$tmpdir/refine-j1.jsonl"
dune exec bin/rushby.exe -- refine --smoke -j 2 --json "$tmpdir/refine-j2.jsonl"
diff "$tmpdir/refine-j1.jsonl" "$tmpdir/refine-j2.jsonl"
dune exec bin/rushby.exe -- serve --smoke -j 1 --json "$tmpdir/serve-j1.jsonl"
dune exec bin/rushby.exe -- serve --smoke -j 2 --json "$tmpdir/serve-j2.jsonl"
diff "$tmpdir/serve-j1.jsonl" "$tmpdir/serve-j2.jsonl"

# The corpus directory ships non-empty, but guard the glob anyway: an
# unexpanded pattern would otherwise reach --replay-corpus verbatim.
for case in test/corpus/*.json; do
  [ -e "$case" ] || continue
  dune exec bin/rushby.exe -- fuzz --replay-corpus "$case"
done

for ex in quickstart snfe_demo guard_demo mls_demo machine_snfe; do
  dune exec "examples/$ex.exe" > /dev/null
done
