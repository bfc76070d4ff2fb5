#!/usr/bin/env python3
"""Fresh-process benchmark of the uhc array-region analyzer.

Run from the repository root:

    python3 perfbench/run.py --workload lu-cold|gen-cold|gen-edit \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Every timed sample is one fresh `uhc` process, run to completion before
the next one starts, at --jobs 1 --workers 0, on the user's real command
line (sources, --cache-dir, --analyses bounds,permissions, --report,
-o).  With --trace 1, samples alternate between plain `uhc` and
`perfbench/pbtool.exe trace`, which performs the same work while timing
each layer's public entry point.  The program is built from source into
.bench_build/ on first use; working files go to .perfbench_work/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
The exit code is 0 when every correctness check passed, 1 when one
failed, and 2 (with no result line) when the benchmark could not run.
See perfbench/NOTES.md for the workloads and the metrics.
"""

import argparse
import collections
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
UHC = os.path.join(BUILD_DIR, "default", "bin", "uhc.exe")
PBTOOL = os.path.join(BUILD_DIR, "default", "perfbench", "pbtool.exe")

ANALYSES = "bounds,permissions"
# wall_s.tail is the highest percentile with at least ten samples beyond
# it, so a run keeps sampling until it has eleven.
MIN_SAMPLES = 11
MIN_TRACED = 3
# Samples start at most once per interval.  Unpaced, a lu-cold run holds
# ~500 invocations and its tail is a p98 that mostly counts host
# contention spikes (it spread by half across runs); paced, each
# workload's tail is a p45-p75 over samples spread across the window.
SAMPLE_INTERVAL_S = 1.0
# Everything after the build must end within this many seconds.
RUN_LIMIT_S = 170.0
# The traced layers must add up to the traced total within this share
# of it (or UNACCOUNTED_FLOOR_S, whichever is larger).
UNACCOUNTED_TOL = 0.05
UNACCOUNTED_FLOOR_S = 0.005

# name -> (corpus, cache state, run the interpreter cross-check)
WORKLOADS = {
    "lu-cold": ("lu", "cold", False),
    "gen-cold": ("gen", "cold", True),
    "gen-edit": ("gen", "edit", False),
}
# The smoke configuration: the same code paths on the tiny corpus.
SMOKE_WORKLOADS = {
    "gen-small-cold": ("gen-small", "cold", True),
    "gen-small-edit": ("gen-small", "edit", False),
}
# Set-up is timed like everything else: repeated, median reported.
SETUP_REPS = {"cold": 11, "edit": 3}


class BenchError(Exception):
    """The benchmark could not run (as opposed to: the program was wrong)."""


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


# ---------------------------------------------------------------------
# Build


def build():
    for need in ("dune-project", os.path.join("bin", "uhc.ml"), "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"{need} not found: run from a checkout of the repository")
    # no shared dune cache: the build reads and writes only the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "./bin/uhc.exe", "./perfbench/pbtool.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        raise BenchError("build failed")


# ---------------------------------------------------------------------
# Processes and files


# One finished child process; t_spawn and t_exit are epoch seconds.
Proc = collections.namedtuple("Proc", "code wall cpu rss_mb t_spawn t_exit")


def spawn(argv, log):
    """Runs argv in the current directory and waits for it.  stdout goes
    to /dev/null, stderr is appended to log.  wall is spawn-to-exit,
    cpu and rss come from the child's rusage."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, log, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644),
    ]
    t_spawn = time.time()
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, ru = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return Proc(os.waitstatus_to_exitcode(status), wall, ru.ru_utime + ru.ru_stime,
                ru.ru_maxrss / 1024.0, t_spawn, time.time())


def scrub(path):
    """Frees the data blocks of every file under path but keeps the files.

    Nothing is deleted: on an ext4 root without a journal, inodes freed
    in the last minute or so are skipped one by one when new files are
    allocated.  A cold gen store writes ~4k files per invocation, and
    deleting earlier caches (after each sample, or after each run) made
    file creation go from about 0.02 ms to 0.35 ms on a 2-vCPU VM and
    doubled gen-cold wall times."""
    for dirpath, _, files in os.walk(path):
        for name in files:
            os.truncate(os.path.join(dirpath, name), 0)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        h.update(f.read())
    return h.hexdigest()


def sources(src_dir):
    return [os.path.join(src_dir, n) for n in sorted(os.listdir(src_dir))
            if n.endswith((".f", ".f90", ".c"))]


def uhc_argv(srcs, cache):
    return [UHC, *srcs, "--cache-dir", cache, "--analyses", ANALYSES,
            "--report", "report.json", "-o", "out", "--jobs", "1", "--workers", "0"]


def trace_argv(srcs, cache):
    return [PBTOOL, "trace", "layers.json", cache, "report.json", "out", *srcs]


# ---------------------------------------------------------------------
# gen-edit: one PU edit drawn from the seed


DECL = re.compile(r"^\s*(real|integer|double|logical|character|parameter|common|dimension|!|$)",
                  re.IGNORECASE)
SUB = re.compile(r"^\s+subroutine\s+(\w+)\s*\(([^)]*)\)", re.IGNORECASE)
DECLARES_I = re.compile(r"^\s+integer\b.*\bi\b", re.IGNORECASE)


class Editor:
    """Re-edits one PU of a generated corpus before every invocation.

    The edit inserts `i = <nonce>` (a dead store to a local loop index)
    before the PU's first statement and drops the blank line after the
    PU's `end`, so every other PU keeps its source lines: only the edited
    PU's content key changes, and it and its transitive callers miss.  A
    fresh nonce per invocation makes each one miss again on the same
    cache; the nonce appears in no report."""

    def __init__(self, src_dir, seed):
        candidates = []
        for path in sources(src_dir):
            with open(path) as f:
                lines = f.read().split("\n")
            for start, line in enumerate(lines):
                m = SUB.match(line)
                if not m or re.search(r"\bi\b", m.group(2)):
                    continue
                first = start + 1
                while first < len(lines) and DECL.match(lines[first]):
                    first += 1
                end = next((j for j in range(first, len(lines))
                            if lines[j].strip().lower() == "end"), None)
                if end is None or not any(DECLARES_I.match(l) for l in lines[start:first]):
                    continue
                tail_blank = end + 1 < len(lines) and lines[end + 1].strip() == "" \
                    and end + 2 < len(lines) and lines[end + 2].strip() != ""
                last = all(l.strip() == "" for l in lines[end + 1:])
                if tail_blank or last:
                    candidates.append((path, m.group(1), first, end, tail_blank))
        if not candidates:
            raise BenchError(f"no editable PU in {src_dir}")
        self.path, self.pu, self.first, self.end, self.tail_blank = \
            random.Random(seed).choice(candidates)
        with open(self.path) as f:
            self.lines = f.read().split("\n")

    def apply(self, nonce):
        lines = list(self.lines)
        if self.tail_blank:
            del lines[self.end + 1]
        lines.insert(self.first, f"      i = {1000 + nonce}")
        # rewritten in place: same inode, nothing freed
        with open(self.path, "w") as f:
            f.write("\n".join(lines))


# ---------------------------------------------------------------------
# Statistics


def tail(xs):
    """(value, percentile): the highest percentile of xs with at least
    ten samples beyond it."""
    s = sorted(xs)
    n = len(s)
    return s[n - 11], 100.0 * (n - 10) / n


def halves(xs):
    h = len(xs) // 2
    return xs[:h], xs[len(xs) - h:]


def drift(walls, rss):
    """How far the second half of a run's invocations moved from the first:
    (growth of the median peak RSS, growth of the fastest wall time over
    the first half's median).

    State carried from one invocation to the next grows both: in one
    process, consecutive cold gen Engine.run calls went 1.45 -> 1.66 ->
    2.18 s while the top heap went 96 -> 143 -> 215 MB.  Host contention
    moves neither statistic: on a shared 2-vCPU VM it moved half-run
    wall medians by up to 25 % between otherwise identical halves, but
    never slowed every invocation of a half, and peak RSS repeats to
    within 1 %."""
    (w1, w2), (r1, r2) = halves(walls), halves(rss)
    return (abs(median(r2) - median(r1)) / median(r1),
            (min(w2) - median(w1)) / median(w1))


# ---------------------------------------------------------------------
# Stamp


def commit_id():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                               text=True, timeout=20)
            if r.returncode == 0:
                return r.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    # not a git checkout: identify the sources by content
    h = hashlib.sha256()
    for top in ("dune-project", "bin", "lib", "perfbench"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(base) for n in ns)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode() + b"\0")
            with open(p, "rb") as f:
                h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def stamp():
    r = subprocess.run([PBTOOL, "version"], capture_output=True, text=True, timeout=20)
    return {"nproc": os.cpu_count(), "ocaml": r.stdout.strip(), "commit": commit_id(),
            "loadavg_start": list(os.getloadavg())}


# ---------------------------------------------------------------------
# One run


class Run:
    def __init__(self, name, workload, seed, seconds, trace):
        self.corpus, self.mode, self.crosscheck = workload
        self.seed, self.seconds = seed, seconds
        self.t_start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None
        self.dir = os.path.join(WORK_DIR, f"{name}-s{seed}-t{int(trace)}-{os.getpid()}")
        os.makedirs(self.dir)
        os.chdir(self.dir)
        self.log = os.path.join(self.dir, "stderr.log")
        self.n_cache = 0
        # set-up is reported by plain runs only
        self.setup_reps = 1 if trace else SETUP_REPS[self.mode]

    def time_left(self):
        return RUN_LIMIT_S - (time.perf_counter() - self.t_start)

    def invoke(self, argv, what):
        """One analysis invocation; it fails on a non-zero exit or a report
        that differs from the run's first one."""
        self.attempted += 1
        p = spawn(argv, self.log)
        ok = p.code == 0
        if ok:
            digest = sha256_file("report.json")
            if self.reference is None:
                self.reference = digest
            elif digest != self.reference:
                ok = False
                self.problem(f"{what}: report differs from the run's first invocation")
        else:
            self.problem(f"{what}: exit code {p.code} (see {self.log})")
        if not ok:
            self.failed += 1
        return p if ok else None

    def problem(self, msg):
        self.problems.append(msg)
        print("check failed:", msg)

    # -- set-up --------------------------------------------------------

    def setup(self):
        """Builds the inputs the samples use (repetition 0)."""
        self.setup_times = []
        self.setup_rep()
        self.srcs = sources("in0")
        self.editor = Editor("in0", self.seed) if self.mode == "edit" else None
        self.n_edit = 0

    def setup_rep(self):
        """One timed set-up: writes the corpus into a new directory and,
        for gen-edit, primes a new cache with one cold run."""
        rep = len(self.setup_times)
        t0 = time.perf_counter()
        p = spawn([PBTOOL, "corpus", self.corpus, f"in{rep}"], self.log)
        if p.code != 0:
            raise BenchError(f"writing the {self.corpus} corpus failed (see {self.log})")
        if self.mode == "edit":
            self.attempted += 1
            p = spawn(uhc_argv(sources(f"in{rep}"), f"p{rep}"), self.log)
            if p.code != 0:
                self.failed += 1
                self.problem(f"priming run: exit code {p.code}")
        self.setup_times.append(time.perf_counter() - t0)

    def setup_due(self, frac):
        """Runs the repetitions due once frac of the sampling window has
        passed.  Spreading them over the window makes their median
        average over the host's load the way the samples' median does:
        back to back, all of them landed in one contention episode."""
        while len(self.setup_times) < self.setup_reps * min(frac, 1.0):
            self.setup_rep()

    # -- samples -------------------------------------------------------

    def next_cache(self):
        """The cache state of the workload for the next invocation."""
        if self.mode == "cold":
            self.n_cache += 1
            return f"c{self.n_cache}"
        self.n_edit += 1
        self.editor.apply(self.n_edit)
        return "p0"

    def sample(self, traced):
        cache = self.next_cache()
        argv = trace_argv(self.srcs, cache) if traced else uhc_argv(self.srcs, cache)
        p = self.invoke(argv, "traced run" if traced else "run")
        if self.mode == "cold":
            scrub(cache)
        return p

    def loop(self, on_sample):
        """Samples until --seconds have passed and on_sample says there are
        enough, or the run's time limit is near; the remaining set-up
        repetitions run in between."""
        t0 = time.perf_counter()
        k = 0
        while self.time_left() > 15:
            self.setup_due((time.perf_counter() - t0) / self.seconds)
            time.sleep(max(0.0, t0 + k * SAMPLE_INTERVAL_S - time.perf_counter()))
            enough = on_sample(k)
            k += 1
            if enough and time.perf_counter() - t0 >= self.seconds:
                break
        self.setup_due(1.0)

    def crosscheck_interp(self):
        """The diffcheck client: bounds verdicts against one interpreted
        run (lib/interp), outside the timing."""
        self.attempted += 1
        p = spawn([UHC, *self.srcs, "--analyses", "bounds,diffcheck",
                   "--report", "diffcheck.json"], self.log)
        summary = {}
        if p.code == 0:
            with open("diffcheck.json") as f:
                reports = json.load(f)["reports"]
            summary = next(r["summary"] for r in reports if r["analysis"] == "diffcheck")
        if p.code != 0 or summary.get("safe_faults") != "0" or summary.get("uncovered") != "0":
            self.failed += 1
            self.problem(f"diffcheck: exit code {p.code}, summary {summary}")

    def safe_frac(self):
        with open("report.json") as f:
            reports = json.load(f)["reports"]
        b = next(r["summary"] for r in reports if r["analysis"] == "bounds")
        return int(b["safe"]) / int(b["accesses"])


def run_plain(run, spec):
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    run.setup()
    run.invoke(uhc_argv(run.srcs, run.next_cache()), "warm-up run")
    safe_frac = run.safe_frac() if run.reference else 0.0
    walls, cpus, rss = [], [], []

    def on_sample(_):
        p = run.sample(traced=False)
        if p:
            walls.append(p.wall)
            cpus.append(p.cpu)
            rss.append(p.rss_mb)
        return len(walls) >= MIN_SAMPLES

    run.loop(on_sample)
    if run.crosscheck:
        run.crosscheck_interp()
    setup = run.setup_times
    if len(walls) < MIN_SAMPLES:
        raise BenchError(f"only {len(walls)} successful samples")
    d_rss, d_wall = drift(walls, rss)
    if d_rss > bound["peak_rss_mb"]:
        run.problem(f"median peak RSS moved by {d_rss:.1%} between the run's halves")
    if d_wall > bound["wall_s.p50"]:
        run.problem(f"every invocation of the second half was slower than the first half's "
                    f"median, by at least {d_wall:.1%}")
    tail_v, tail_pct = tail(walls)
    n = len(walls)
    metrics = {
        "wall_s.p50": (median(walls), f"median of {n} invocations"),
        "wall_s.tail": (tail_v, f"p{tail_pct:.1f} of {n} invocations"),
        "cpu_s.p50": (median(cpus), f"median user+sys of {n} invocations"),
        "peak_rss_mb": (median(rss), f"median of {n} per-invocation peaks"),
        "setup_s": (median(setup), f"median of {len(setup)} set-ups"),
        "safe_frac": (safe_frac, "bounds accesses proven safe / all"),
        "ok_frac": (1.0 - run.failed / run.attempted,
                    f"{run.attempted - run.failed} of {run.attempted} invocations passed"),
    }
    extra = {"walls": walls, "cpus": cpus, "rss_mb": rss, "setup": setup,
             "drift_rss": d_rss, "drift_wall": d_wall}
    return metrics, extra


def run_traced(run, spec):
    run.setup()
    run.invoke(uhc_argv(run.srcs, run.next_cache()), "warm-up run")
    # the store namespaces entries by executable, so pbtool needs its own
    # warm-up to see the cache state uhc sees
    run.invoke(trace_argv(run.srcs, run.next_cache()), "traced warm-up run")
    walls, traced = [], []

    def on_sample(k):
        p = run.sample(traced=k % 2 == 1)
        if p and k % 2 == 0:
            walls.append(p.wall)
        elif p:
            traced.append(traced_sample(run, p))
        return len(traced) >= MIN_TRACED

    run.loop(on_sample)
    if run.crosscheck:
        run.crosscheck_interp()
    if len(traced) < MIN_TRACED or not walls:
        raise BenchError(f"only {len(traced)} traced and {len(walls)} plain samples")
    names = [m["name"] for m in spec["per_layer"]]
    metrics = {}
    for name in names:
        if name == "trace.overhead_s":
            v = median(t["trace.total_s"] for t in traced) - median(walls)
        else:
            v = median(t[name] for t in traced)
        metrics[name] = (v, f"median of {len(traced)} traced invocations")
    total, unaccounted = metrics["trace.total_s"][0], metrics["trace.unaccounted_s"][0]
    if abs(unaccounted) > max(UNACCOUNTED_TOL * total, UNACCOUNTED_FLOOR_S):
        run.problem(f"layers leave {unaccounted:.4f} s of {total:.4f} s unaccounted")
    return metrics, {"walls": walls, "traced": traced}


def traced_sample(run, p):
    with open("layers.json") as f:
        t = json.load(f)
    layers, values = t["layers"], t["values"]
    row = dict(layers)
    row.update(values)
    row["proc.start_s"] = t["t_main"] - p.t_spawn
    row["proc.exit_s"] = p.t_exit - t["t_end"]
    row["trace.total_s"] = p.wall
    row["trace.unaccounted_s"] = p.wall - row["proc.start_s"] - row["proc.exit_s"] - sum(layers.values())
    # the workload's cache state, as the engine saw it
    if run.mode == "cold" and values["engine.collect_misses"] != values["engine.pus"]:
        run.problem(f"cold run reused {values['engine.pus'] - values['engine.collect_misses']} collect results")
    if run.mode == "edit" and values["engine.collect_misses"] != 1:
        run.problem(f"edit run re-collected {values['engine.collect_misses']} PUs, expected 1")
    return row


def execute(name, workload, seed, seconds, trace, spec):
    st = stamp()
    run = Run(name, workload, seed, seconds, trace)
    try:
        metrics, extra = (run_traced if trace else run_plain)(run, spec)
    finally:
        os.chdir(ROOT)
        scrub(run.dir)
    st["loadavg_end"] = list(os.getloadavg())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }
    notes = {k: n for k, (_, n) in metrics.items()}
    with open(run.dir + ".json", "w") as f:
        json.dump({"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                   "stamp": st, "problems": run.problems, "result": result,
                   "notes": notes, "samples": extra}, f, indent=1)
    return result, st, notes


def report(name, seed, trace, result, st, notes):
    print(f"perfbench workload={name} seed={seed} trace={int(trace)}")
    print("stamp " + json.dumps(st, sort_keys=True))
    for k, m in result["metrics"].items():
        print(f"  {k:32s} {m['value']:>14.6g} {m['unit']:6s} {notes[k]}")
    if not trace:
        fail_frac = result["failed"] / result["attempted"]
        print(f"  {'fail_frac':32s} {fail_frac:>14.6g} {'ratio':6s} "
              f"{result['failed']} of {result['attempted']} invocations failed")
    print(json.dumps(result))


def smoke(spec):
    """Every named metric prints with its unit, on the gen-small corpus."""
    ok = True
    for name, workload in SMOKE_WORKLOADS.items():
        for trace in (False, True):
            result, st, notes = execute(name, workload, 1, 1, trace, spec)
            report(name, 1, trace, result, st, notes)
            want = spec["per_layer" if trace else "end_to_end"]
            for m in want:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                    print(f"smoke: {name} trace={int(trace)}: {m['name']} missing or malformed")
                    ok = False
            ok = ok and result["correct"]
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="check that every metric prints, on the gen-small corpus")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required")
    try:
        spec = load_spec()
        build()
        if args.smoke:
            return smoke(spec)
        result, st, notes = execute(args.workload, WORKLOADS[args.workload], args.seed,
                                    args.seconds, bool(args.trace), spec)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    report(args.workload, args.seed, args.trace, result, st, notes)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
