#!/usr/bin/env python3
"""Alternating A/B runs of perfbench between a base revision and a change.

    tools/perf_ab.py --base <rev> --workload W --pairs N
                     [--seed-start K] [--trace 0|1] [--scratch DIR]

Each side is exported into its own source tree under the scratch dir
(default ${TMPDIR:-/tmp}/himpact_perf_ab): the base with `git archive
<rev>`, the change as a copy of the working tree's tracked and
untracked, not ignored, files. Exporting leaves the repository's own
checkout and git metadata untouched. Each side builds its perfbench
package once before the first pair.

Pair i runs `perfbench/run.py --workload W --seed <seed-start + i>
--seconds S --trace T` once on each side, the base first on even i and
the change first on odd i, where S is BENCHMARK.json's run_seconds.

For every metric BENCHMARK.json lists (the end-to-end ones, or the
per-layer ones with --trace 1) it prints the base's median and
quartiles, the change's median, the pairs the change won (ties count
for neither side), whether the change's median is worse than the
base's by more than the metric's bound (end-to-end metrics only), and
whether a gain would hold: wins in at least 9/10 of the pairs and a
median improvement, in the metric's better direction, larger than the
base's interquartile range (`verdict`). Every
run's JSON goes to <scratch>/<workload>-results.json.

Exits 1 when any run fails, reports `correct: false` or counts failed
operations; 2 on a usage or export error.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(["git", "-C", str(REPO), *args], check=True,
                          stdout=subprocess.PIPE).stdout


def export_rev(rev, dest):
    sha = git("rev-parse", "--verify", rev + "^{commit}").decode().strip()
    dest.mkdir(parents=True)
    archive = git("archive", "--format=tar", sha)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def export_working_tree(dest):
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, names.decode().split("\0")):
        src = REPO / name
        if not src.is_file():
            continue  # deleted but not yet staged
        (dest / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(src, dest / name)
    return "working tree"


def build(tree):
    code = "import sys; sys.path.insert(0, 'perfbench'); import run; run.build()"
    subprocess.run([sys.executable, "-c", code], cwd=tree, check=True)


def run_once(tree, args, seconds, seed):
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(args.trace)]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL)
    lines = done.stdout.decode(errors="replace").strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "failed": None, "metrics": {}}
    result["exit_code"] = done.returncode
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(spec, pairs):
    """Judges one metric from its (base, change) value pairs.

    `spec` is the metric's BENCHMARK.json entry. A pair is a win when the
    change is strictly better in the metric's direction. `past` is "PAST"
    when the change's median is worse than the base's by more than the
    metric's bound, "ok" when it is not, and "-" for a metric with no
    bound. `gain` needs wins in at least 9/10 of the pairs and a median
    improvement, in the better direction, larger than the base's
    interquartile range: a change that got worse never shows a gain.
    """
    lower = spec["better"] == "lower"
    base = [b for b, _ in pairs]
    head = [h for _, h in pairs]
    wins = sum(1 for b, h in pairs if (h < b if lower else h > b))
    bmed, hmed = statistics.median(base), statistics.median(head)
    q1, q3 = quartiles(base)
    improvement = bmed - hmed if lower else hmed - bmed
    past = "-"
    if "bound" in spec:
        past = "PAST" if -improvement > spec["bound"] * abs(bmed) else "ok"
    gain = wins * 10 >= 9 * len(pairs) and improvement > q3 - q1
    return {"base_med": bmed, "base_q1": q1, "base_q3": q3,
            "change_med": hmed, "wins": wins, "past": past, "gain": gain}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed-start", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scratch", type=Path,
                    default=Path(os.environ.get("TMPDIR", "/tmp"))
                    / "himpact_perf_ab")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]

    trees = {"base": args.scratch / "base", "head": args.scratch / "head"}
    for tree in trees.values():
        shutil.rmtree(tree, ignore_errors=True)
    try:
        label = {"base": export_rev(args.base, trees["base"])}
        label["head"] = export_working_tree(trees["head"])
    except subprocess.CalledProcessError as e:
        print("perf_ab: export failed: %s" % e, file=sys.stderr)
        return 2
    print("# base %s, change %s; %s, %d pairs of %gs, seeds %d..%d, trace %d"
          % (label["base"], label["head"], args.workload, args.pairs,
             seconds, args.seed_start, args.seed_start + args.pairs - 1,
             args.trace), flush=True)
    for side in ("base", "head"):
        build(trees[side])

    runs = {"base": [], "head": []}
    ok = True
    for i in range(args.pairs):
        seed = args.seed_start + i
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            result = run_once(trees[side], args, seconds, seed)
            result["seed"] = seed
            runs[side].append(result)
            bad = (result["exit_code"] != 0 or not result.get("correct")
                   or result.get("failed") != 0)
            ok = ok and not bad
            print("pair %d seed %d %s%s" % (i + 1, seed, side,
                                           " FAILED" if bad else ""), flush=True)
    out = args.scratch / ("%s-results.json" % args.workload)
    out.write_text(json.dumps(runs, indent=1))

    print("%-32s %12s %12s %12s %12s %6s %6s %5s"
          % ("metric", "base_med", "base_q1", "base_q3", "change_med", "wins",
             "bound", "gain"))
    for spec in specs:
        pairs = [(b["metrics"].get(spec["name"], {}).get("value"),
                  h["metrics"].get(spec["name"], {}).get("value"))
                 for b, h in zip(runs["base"], runs["head"])]
        pairs = [(b, h) for b, h in pairs if b is not None and h is not None]
        if not pairs:
            continue
        v = verdict(spec, pairs)
        print("%-32s %12.4g %12.4g %12.4g %12.4g %3d/%-2d %6s %5s"
              % (spec["name"], v["base_med"], v["base_q1"], v["base_q3"],
                 v["change_med"], v["wins"], len(pairs), v["past"],
                 "yes" if v["gain"] else "no"))
    print("# every run: %s" % out)
    if not ok:
        print("perf_ab: a run failed, was incorrect or counted failed operations",
              file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
