#!/bin/sh
# Repo verification: full build, format check (when available), tests, and
# an end-to-end uhc smoke run through the parallel engine.
set -e
cd "$(dirname "$0")/.."

echo "== dune build @all =="
dune build @all

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt =="
  dune build @fmt
else
  echo "== skipping @fmt (ocamlformat not installed) =="
fi

echo "== no unused exports in lib/**/*.mli =="
# a word-level scan (scripts/unused_exports.py): every exported value must
# be named by some other source file, and every library module by some
# non-test file; the count may not grow back above 0
if command -v python3 >/dev/null 2>&1; then
  python3 scripts/unused_exports.py --max 0
else
  echo "== skipping the export scan (python3 not installed) =="
fi

echo "== dune runtest =="
OCAMLRUNPARAM=b dune runtest

echo "== smoke: uhc --corpus lu --jobs 4 =="
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
dune exec bin/uhc.exe -- --corpus lu -o "$out" --jobs 4 --stats
test -s "$out/project.rgn"
test -s "$out/project.dgn"

echo "== smoke: uhc FILE.B writes what the source run writes (lu, matrix) =="
# --emit-whirl, then a run that resumes from the file: outputs, report and
# stdout (less the wrote lines) equal the run from source
for corpus in lu matrix; do
  dune exec bin/uhc.exe -- --corpus $corpus --analyses bounds,permissions \
    --report "$out/bsrc_$corpus.json" --emit-whirl "$out/$corpus.B" \
    -o "$out/bsrc_$corpus" | grep -v '^wrote ' >"$out/bsrc_$corpus.txt"
  dune exec bin/uhc.exe -- "$out/$corpus.B" --analyses bounds,permissions \
    --report "$out/bB_$corpus.json" -o "$out/bB_$corpus" \
    | grep -v '^wrote ' >"$out/bB_$corpus.txt"
  cmp "$out/bsrc_$corpus.txt" "$out/bB_$corpus.txt"
  cmp "$out/bsrc_$corpus.json" "$out/bB_$corpus.json"
  for f in project.rgn project.dgn project.cfg; do
    cmp "$out/bsrc_$corpus/$f" "$out/bB_$corpus/$f"
  done
done

echo "== committed BENCH_*.json pass check-json =="
dune exec bench/main.exe -- check-json BENCH_*.json

echo "== smoke: bench engine --json =="
dune exec bench/main.exe -- engine --json --out "$out/BENCH_engine.json" >/dev/null
dune exec bench/main.exe -- check-json "$out/BENCH_engine.json"

echo "== smoke: bench obs --json =="
dune exec bench/main.exe -- obs --json --out "$out/BENCH_obs.json" >/dev/null
dune exec bench/main.exe -- check-json "$out/BENCH_obs.json"

echo "== bench --out with two record sections exits 2 =="
rc=0
dune exec bench/main.exe -- engine obs --out "$out/two.json" 2>/dev/null || rc=$?
test "$rc" = 2
test ! -e "$out/two.json"

echo "== smoke: bench solver --json =="
dune exec bench/main.exe -- solver --json --out "$out/BENCH_solver.json"
test -s "$out/BENCH_solver.json"
dune exec bench/main.exe -- check-json "$out/BENCH_solver.json"

echo "== smoke: bench regions --json =="
dune exec bench/main.exe -- regions --json --out "$out/BENCH_regions.json"
test -s "$out/BENCH_regions.json"
dune exec bench/main.exe -- check-json "$out/BENCH_regions.json"

echo "== smoke: bench bounds --json =="
dune exec bench/main.exe -- bounds --json --out "$out/BENCH_bounds.json"
test -s "$out/BENCH_bounds.json"
dune exec bench/main.exe -- check-json "$out/BENCH_bounds.json"

echo "== smoke: uhc --analyses report is jobs-invariant =="
dune exec bin/uhc.exe -- --corpus lu --analyses bounds,permissions \
  --report "$out/report1.json" --jobs 1 >/dev/null
dune exec bin/uhc.exe -- --corpus lu --analyses bounds,permissions \
  --report "$out/report4.json" --jobs 4 >/dev/null
cmp "$out/report1.json" "$out/report4.json"
dune exec bench/main.exe -- check-json "$out/report1.json"
dune exec bin/dragon.exe -- report "$out/report1.json" | grep -q "== analysis: bounds =="

echo "== smoke: uhc --stats-det is jobs-invariant (gen-small) =="
# the CLI path through Pipeline: deterministic solver and engine counters
# must not depend on how the pool schedules the work
dune exec bin/uhc.exe -- --corpus gen-small --stats-det --jobs 1 \
  -o "$out/sdet" >"$out/sdet1.txt"
dune exec bin/uhc.exe -- --corpus gen-small --stats-det --jobs 4 \
  -o "$out/sdet" >"$out/sdet4.txt"
cmp "$out/sdet1.txt" "$out/sdet4.txt"

echo "== smoke: uhc --stats-det is jobs-invariant (lu) =="
# LU is the corpus whose learned contexts answer from feasibility witnesses
# and whose eliminations merge dominated rows
dune exec bin/uhc.exe -- --corpus lu --stats-det --jobs 1 \
  -o "$out/ldet" >"$out/ldet1.txt"
dune exec bin/uhc.exe -- --corpus lu --stats-det --jobs 4 \
  -o "$out/ldet" >"$out/ldet4.txt"
cmp "$out/ldet1.txt" "$out/ldet4.txt"

echo "== smoke: uhc --trace/--metrics + dragon profile =="
dune exec bin/uhc.exe -- --corpus matrix --jobs 2 \
  --trace "$out/trace.json" --metrics "$out/metrics.json" \
  --log-level info -o "$out" 2>"$out/log.err"
test -s "$out/trace.json"
test -s "$out/metrics.json"
grep -q "^info pipeline.done" "$out/log.err"
dune exec bench/main.exe -- check-json "$out/trace.json" "$out/metrics.json"
dune exec bin/dragon.exe -- profile "$out/trace.json" | grep -q "^phases"

echo "== smoke: uhc --keep-going --fault-spec + diagnostics JSON =="
dune exec bin/uhc.exe -- --corpus lu --keep-going \
  --fault-spec all:0.1:42 --diagnostics "$out/diag.json" \
  -o "$out/faulted" --jobs 2 --cache-dir "$out/fcache"
test -s "$out/diag.json"
dune exec bench/main.exe -- check-json "$out/diag.json"
# rate 0 under --keep-going must be byte-identical to the plain run
dune exec bin/uhc.exe -- --corpus lu -o "$out/plain" --jobs 4 >/dev/null
dune exec bin/uhc.exe -- --corpus lu --keep-going --fault-spec all:0.0:1 \
  -o "$out/zero" --jobs 4 >/dev/null
cmp "$out/plain/project.rgn" "$out/zero/project.rgn"
cmp "$out/plain/project.dgn" "$out/zero/project.dgn"
cmp "$out/plain/project.cfg" "$out/zero/project.cfg"
# ... and so are its deterministic statistics: a rate-0 plan does no more
# solver work than no plan at all
dune exec bin/uhc.exe -- --corpus lu --stats-det -o "$out/zdet" \
  >"$out/zdet0.txt"
dune exec bin/uhc.exe -- --corpus lu --stats-det --keep-going \
  --fault-spec all:0.0:1 -o "$out/zdet" >"$out/zdet1.txt"
cmp "$out/zdet0.txt" "$out/zdet1.txt"

echo "== smoke: run ledger + dragon history/explain/regress =="
# two identical runs into one cache directory: the second is all cache
# hits, and the default (deterministic-only) regress gates must pass
dune exec bin/uhc.exe -- --corpus lu --analyses bounds \
  --cache-dir "$out/lcache" -o "$out/lrun1" >/dev/null
dune exec bin/uhc.exe -- --corpus lu --analyses bounds \
  --cache-dir "$out/lcache" -o "$out/lrun2" >/dev/null
cmp "$out/lrun1/project.rgn" "$out/lrun2/project.rgn"
dune exec bench/main.exe -- check-json "$out/lcache"/ledger/*.jsonl
dune exec bin/dragon.exe -- history --cache-dir "$out/lcache" \
  wall_s cache.summary_hits | grep -q "^cache.summary_hits"
dune exec bin/dragon.exe -- explain --cache-dir "$out/lcache" applu.f \
  | grep -q "served from cache"
dune exec bin/dragon.exe -- regress --cache-dir "$out/lcache"
# an injected breach (a negative threshold demands a decrease, so the
# identical rerun violates it) must flip the exit code to 1
if dune exec bin/dragon.exe -- regress --cache-dir "$out/lcache" \
    --threshold verdicts.bounds.safe=-50 >/dev/null; then
  echo "regress failed to flag an injected breach" >&2
  exit 1
fi
# ledger off (--no-ledger) leaves outputs byte-identical and writes nothing
dune exec bin/uhc.exe -- --corpus lu --analyses bounds --no-ledger \
  --cache-dir "$out/lcache" -o "$out/lrun3" >/dev/null
cmp "$out/lrun1/project.rgn" "$out/lrun3/project.rgn"
test "$(ls "$out/lcache/ledger" | wc -l)" = 2

echo "== smoke: uhc gen -> analyze -> diffcheck -> dragon regress =="
# the seeded generator round trip: emit a small corpus to disk, analyze the
# files with the differential harness, and gate through the run ledger
dune exec bin/uhc.exe -- gen --seed 42 --files 4 --pus-per-file 3 \
  -o "$out/gencorpus" | grep -q "wrote 4 files"
# twice into one cache: the rerun is the regress baseline
dune exec bin/uhc.exe -- "$out/gencorpus"/*.f --analyses bounds,diffcheck \
  --report "$out/genreport.json" --cache-dir "$out/gcache" \
  -o "$out/genout" --jobs 2 >/dev/null
dune exec bin/uhc.exe -- "$out/gencorpus"/*.f --analyses bounds,diffcheck \
  --report "$out/genreport2.json" --cache-dir "$out/gcache" \
  -o "$out/genout2" --jobs 2 >/dev/null
cmp "$out/genreport.json" "$out/genreport2.json"
dune exec bench/main.exe -- check-json "$out/genreport.json"
grep -q '"analysis": "diffcheck"' "$out/genreport.json"
dune exec bin/dragon.exe -- regress --cache-dir "$out/gcache"

echo "== smoke: frontend artifacts: cold, one-file edit, warm == no cache =="
# gen-small on disk; the warm run after editing one file re-parses only
# that file and must write exactly what a no-cache run of the edited
# sources writes
dune exec bin/uhc.exe -- gen -o "$out/fsrc" >/dev/null
dune exec bin/uhc.exe -- "$out/fsrc"/*.f --analyses bounds,permissions \
  --report "$out/fcold.json" --cache-dir "$out/fcache2" -o "$out/fcold" \
  >/dev/null
sed -i '0,/ = /s/\( = .*\)$/\1 + 0/' "$out/fsrc/gen_001.f"
dune exec bin/uhc.exe -- "$out/fsrc"/*.f --analyses bounds,permissions \
  --report "$out/fwarm.json" --cache-dir "$out/fcache2" -o "$out/fwarm" \
  --stats >"$out/fwarm.log"
grep -q "^frontend: interface 7 hit / 1 miss, body 7 hit / 1 miss" \
  "$out/fwarm.log"
dune exec bin/uhc.exe -- "$out/fsrc"/*.f --analyses bounds,permissions \
  --report "$out/fnone.json" -o "$out/fnone" >/dev/null
for f in project.rgn project.dgn project.cfg; do
  cmp "$out/fnone/$f" "$out/fwarm/$f"
done
cmp "$out/fnone.json" "$out/fwarm.json"

echo "== smoke: declaration edit: cold, one added local, warm == no cache =="
# a symbolic variable's id is computed from its PU's module position and
# st code, so a local added to one PU moves no other PU's variables: the
# warm run re-collects only the edited file's PUs, and writes and counts
# what a no-cache run of the edited sources does
dune exec bin/uhc.exe -- gen -o "$out/dsrc" >/dev/null
dune exec bin/uhc.exe -- "$out/dsrc"/*.f --cache-dir "$out/dcache" \
  -o "$out/dcold" >/dev/null
sed -i '0,/^      integer d, i$/s//&\n      integer zzextra/' "$out/dsrc/gen_000.f"
grep -q "^      integer zzextra$" "$out/dsrc/gen_000.f"
dune exec bin/uhc.exe -- "$out/dsrc"/*.f --cache-dir "$out/dcache" \
  -o "$out/dwarm" --stats-det >"$out/dwarm.txt"
dune exec bin/uhc.exe -- "$out/dsrc"/*.f -o "$out/dnone" --stats-det \
  >"$out/dnone.txt"
for f in project.rgn project.dgn project.cfg; do
  cmp "$out/dnone/$f" "$out/dwarm/$f"
done
# the cache line differs (hits instead of misses), and the wrote lines
grep -v -e '^  cache:' -e '^wrote ' "$out/dwarm.txt" >"$out/dwarm.det"
grep -v -e '^  cache:' -e '^wrote ' "$out/dnone.txt" >"$out/dnone.det"
cmp "$out/dnone.det" "$out/dwarm.det"
# gen_000.f holds 4 PUs: no collect miss beyond them
misses=$(sed -n 's/^  cache: collect [0-9]* hit \/ \([0-9]*\) miss.*/\1/p' \
  "$out/dwarm.txt")
test "$misses" -ge 1
test "$misses" -le 4

echo "== smoke: warm runs that read cached bodies == no cache (gen-small, lu, matrix) =="
# the caches hold every file's body; --wopt, --autopar and diffcheck ask
# for them (decoded from the tree entries on demand), and must print and
# write what a no-cache run does.  matrix is C: its trees come from the C
# lexer.  (diffcheck interprets the program: lu runs out of statements.)
bodies_match() { # cache-dir flags source-args...
  cache=$1 flags=$2
  shift 2
  rm -rf "$out/bwarm" "$out/bnone"
  # shellcheck disable=SC2086
  dune exec bin/uhc.exe -- "$@" $flags --cache-dir "$cache" \
    -o "$out/bwarm" | grep -v '^wrote ' >"$out/bwarm.txt"
  # shellcheck disable=SC2086
  dune exec bin/uhc.exe -- "$@" $flags -o "$out/bnone" \
    | grep -v '^wrote ' >"$out/bnone.txt"
  cmp "$out/bnone.txt" "$out/bwarm.txt"
  for f in project.rgn project.dgn project.cfg; do
    cmp "$out/bnone/$f" "$out/bwarm/$f"
  done
}
for flags in "--wopt" "--autopar" "--analyses bounds,diffcheck"; do
  bodies_match "$out/fcache2" "$flags" "$out/fsrc"/*.f
done
for corpus in lu matrix; do
  dune exec bin/uhc.exe -- --corpus $corpus --cache-dir "$out/bcache_$corpus" \
    -o "$out/bcold_$corpus" >/dev/null
  for flags in "--wopt" "--autopar"; do
    bodies_match "$out/bcache_$corpus" "$flags" --corpus $corpus
  done
done
bodies_match "$out/bcache_matrix" "--analyses bounds,diffcheck" --corpus matrix

echo "== smoke: bench gen --json =="
dune exec bench/main.exe -- gen --json --out "$out/BENCH_gen.json" >/dev/null
test -s "$out/BENCH_gen.json"
dune exec bench/main.exe -- check-json "$out/BENCH_gen.json"

echo "== fresh BENCH records have the committed member paths =="
# every member path (list elements by index) of the six records written
# above must match the committed file: no member renamed, moved or lost
if command -v python3 >/dev/null 2>&1; then
  python3 - "$out" <<'EOF'
import json, sys

def paths(v, pre=""):
    if isinstance(v, dict):
        return {p for k, x in v.items() for p in {pre + k} | paths(x, pre + k + ".")}
    if isinstance(v, list):
        return {p for i, x in enumerate(v) for p in paths(x, "%s%d." % (pre, i))}
    return set()

bad = 0
for b in ["bounds", "engine", "gen", "obs", "regions", "solver"]:
    old = paths(json.load(open("BENCH_%s.json" % b)))
    new = paths(json.load(open("%s/BENCH_%s.json" % (sys.argv[1], b))))
    if old != new:
        print("BENCH_%s.json: member paths differ: %s" % (b, sorted(old ^ new)),
              file=sys.stderr)
        bad = 1
sys.exit(bad)
EOF
else
  echo "== skipping the member-path check (python3 not installed) =="
fi

echo "== smoke: dragon profile --folded =="
dune exec bin/dragon.exe -- profile --folded "$out/trace.json" \
  | grep -q "^pipeline;"

echo "== obs: duplicate metric registration is rejected =="
# the "metrics registry" case re-registers a name as a different instrument
# kind and fails unless Obs.Metrics raises Invalid_argument
dune exec test/test_main.exe -- test obs 8

echo "== smoke: cold + warm at different --jobs share one cache dir =="
# a cold run publishes every summary; a warm run at a different --jobs
# recomputes nothing and the default regress gates (which include
# cache.summary_misses) stay green across the change
dune exec bin/uhc.exe -- --corpus gen-small --jobs 1 \
  --cache-dir "$out/scache" -o "$out/s1" >/dev/null
dune exec bin/uhc.exe -- --corpus gen-small --jobs 2 \
  --cache-dir "$out/scache" -o "$out/s2" >/dev/null
cmp "$out/s1/project.rgn" "$out/s2/project.rgn"
cmp "$out/s1/project.dgn" "$out/s2/project.dgn"
cmp "$out/s1/project.cfg" "$out/s2/project.cfg"
dune exec bin/dragon.exe -- regress --cache-dir "$out/scache"

echo "== smoke: pack segments: a cold run publishes O(1) files and heals =="
# one segment per producer (frontend, engine) under the schema directory,
# and no temp file left behind
dune exec bin/uhc.exe -- --corpus gen-small --cache-dir "$out/pcache" \
  -o "$out/p1" >/dev/null
for d in "$out/pcache"/*/; do
  case "$d" in */ledger/) ;; *) sdir="$d" ;; esac
done
test "$(ls "$sdir" | wc -l)" -le 2
if ls "$sdir" | grep -q '\.tmp\.'; then
  echo "cold run left a temp file in $sdir" >&2
  exit 1
fi
# flip one byte of the first payload of a segment (payloads start after
# the 8-byte header): the warm run quarantines it, recomputes, and writes
# what a no-cache run writes
seg=$(ls "$sdir"/*.seg | head -1)
b=$(od -An -tu1 -j8 -N1 "$seg" | tr -d ' ')
printf "$(printf '\\%03o' $((b ^ 255)))" \
  | dd of="$seg" bs=1 seek=8 conv=notrunc 2>/dev/null
dune exec bin/uhc.exe -- --corpus gen-small --cache-dir "$out/pcache" \
  -o "$out/p2" --metrics "$out/pmetrics.json" >/dev/null
dune exec bin/uhc.exe -- --corpus gen-small -o "$out/p0" >/dev/null
for f in project.rgn project.dgn project.cfg; do
  cmp "$out/p0/$f" "$out/p2/$f"
done
q=$(cat "$out"/pmetrics*.json \
  | grep -o '"name": *"store.quarantined"[^}]*' \
  | sed 's/.*"value": *//')
test "$q" -ge 1
# healed: a third run recomputes no summary
dune exec bin/uhc.exe -- --corpus gen-small --cache-dir "$out/pcache" \
  -o "$out/p3" --stats | grep -q "summary [0-9]* hit / 0 miss"

echo "== smoke: collect builds each access shape once per run =="
# gen-small repeats its access shapes: the run's shape memo must answer
# more region requests than it builds regions
dune exec bin/uhc.exe -- --corpus gen-small -o "$out/shp" \
  --metrics "$out/shp-metrics.json" >/dev/null
counter() {
  grep -o "\"name\": *\"$1\"[^}]*" "$out/shp-metrics.json" \
    | sed 's/.*"value": *//'
}
req=$(counter collect.regions.requested)
dist=$(counter collect.regions.distinct)
test "$dist" -ge 1
test "$dist" -lt "$req"

echo "== smoke: a keep-going run does not poison the cache =="
# an isolated PU's callers summarize from its opaque stand-in; the warm
# run after it must report what a no-cache run reports
dune exec bin/uhc.exe -- --corpus lu --cache-dir "$out/kcache" --keep-going \
  --fault-spec pool:1.0:0:summarize:exact --analyses bounds,permissions \
  --report "$out/k1.json" -o "$out/k1" >/dev/null 2>&1
dune exec bin/uhc.exe -- --corpus lu --cache-dir "$out/kcache" \
  --analyses bounds,permissions --report "$out/k2.json" -o "$out/k2" >/dev/null
dune exec bin/uhc.exe -- --corpus lu --analyses bounds,permissions \
  --report "$out/k0.json" -o "$out/k0" >/dev/null
cmp "$out/k0.json" "$out/k2.json"

echo "== smoke: perfbench --smoke (fresh-process benchmark, gen-small) =="
if command -v python3 >/dev/null 2>&1; then
  python3 perfbench/run.py --smoke
else
  echo "== skipping perfbench (python3 not installed) =="
fi

echo "verify: OK"
