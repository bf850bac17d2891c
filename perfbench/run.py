#!/usr/bin/env python3
"""The APNA benchmark: build, run one workload, check, report.

Run from the root of the repository:

  python3 perfbench/run.py --workload fwd_mem|fwd_udp|control \
      --seed N --seconds S --trace 0|1

builds the `perfbench` binary in Release (into $CARGO_TARGET_DIR, default
.bench_build, under perfbench/), runs the workload and prints its report.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The
exit code is non-zero when any output check failed.

  python3 perfbench/run.py repeat [--runs K] [--sets 2] [--seconds S]
      [--workload W ...]

runs every workload K times per set, each time with another seed, and
reports per end-to-end metric the median, quartiles and spread
((Q3 - Q1) / median) of each set. It fails when a spread exceeds the
metric's bound in BENCHMARK.json, when the second set's median is worse
than the first's by more than the bound, or when the share of failed
operations differs between the sets. Each run's full
report is kept in repeat/<workload>-seed<n>.log under the build directory.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(REPO, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(2, "cannot read %s: %s" % (path, e))


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(REPO, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures once and builds the perfbench target in Release."""
    if not (os.path.isfile(os.path.join(REPO, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt"))):
        fail(2, "no APNA sources next to perfbench/ (run from the repository root)")
    bd = build_dir()
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(bd, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bd, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bd, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               text=True, timeout=880)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(3, "build step %s failed: %s" % (cmd[:2], e))
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            fail(3, "build step %s failed" % " ".join(cmd[:2]))
    exe = os.path.join(bd, "perfbench")
    if not os.access(exe, os.X_OK):
        fail(3, "build produced no perfbench binary")
    return exe


def git_sha():
    try:
        p = subprocess.run(["git", "-C", REPO, "rev-parse", "--short=12", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=10)
        if p.returncode == 0 and p.stdout.strip():
            return p.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def run_once(exe, spec, workload, seed, seconds, trace, echo=True):
    """Runs the binary; returns (exit code, parsed result, config, stdout)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--out", os.path.join(build_dir(), "out"), "--git-sha", git_sha()]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(4, "workload %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = p.stdout.strip().splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if not lines:
        fail(4, "workload %s printed nothing (exit %d)" % (workload, p.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(4, "workload %s printed no JSON result (exit %d)" % (workload, p.returncode))
    config = {}
    for line in lines:
        if line.startswith("CONFIG "):
            config = json.loads(line[len("CONFIG "):])
    keys = ["end_to_end", "per_layer"][1 if trace else 0]
    want = [m["name"] for m in spec[keys]]
    if sorted(result.get("metrics", {})) != sorted(want) or sorted(result) != sorted(
            ["correct", "attempted", "failed", "metrics"]):
        fail(5, "workload %s result does not match BENCHMARK.json %s" % (workload, keys))
    return p.returncode, result, config, p.stdout


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(args, exe, spec):
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    seconds = args.seconds or spec["run_seconds"]
    logs = os.path.join(build_dir(), "repeat")
    os.makedirs(logs, exist_ok=True)
    sets = []
    for s in range(args.sets):
        data = {w: {"values": {m["name"]: [] for m in metrics}, "attempted": 0,
                    "failed": 0, "configs": set()} for w in workloads}
        for i in range(args.runs):
            for w in workloads:
                seed = args.seed0 + 1000 * s + i
                code, res, cfg, out = run_once(exe, spec, w, seed, seconds, False, echo=False)
                with open(os.path.join(logs, "%s-seed%d.log" % (w, seed)), "w") as f:
                    f.write(out)
                d = data[w]
                d["attempted"] += res["attempted"]
                d["failed"] += res["failed"]
                d["configs"].add((cfg.get("nproc"), cfg.get("crypto_tier")))
                for m in metrics:
                    d["values"][m["name"]].append(res["metrics"][m["name"]]["value"])
                print("set %d run %d %-8s seed %d exit %d correct %s %s" % (
                    s + 1, i + 1, w, seed, code, res["correct"],
                    " ".join("%s=%.6g" % (m["name"], res["metrics"][m["name"]]["value"])
                             for m in metrics)), flush=True)
        sets.append(data)

    ok = True
    report = {"runs": args.runs, "sets": []}
    for s, data in enumerate(sets):
        rep = {}
        print("\nset %d (%d runs per workload, %d s each)" % (s + 1, args.runs, seconds))
        print("  %-8s %-11s %14s %14s %14s %8s %6s" % (
            "workload", "metric", "Q1", "median", "Q3", "spread", "bound"))
        for w in workloads:
            d = data[w]
            if len(d["configs"]) != 1:
                print("  %s: runs differ in nproc or crypto tier: %s" % (w, d["configs"]))
                ok = False
            rep[w] = {"attempted": d["attempted"], "failed": d["failed"], "metrics": {}}
            for m in metrics:
                q1, med, q3 = quartiles(d["values"][m["name"]])
                spread = (q3 - q1) / med if med else float("inf")
                rep[w]["metrics"][m["name"]] = {"q1": q1, "median": med, "q3": q3,
                                                "spread": spread}
                flag = ""
                if spread > m["bound"]:
                    flag = "  SPREAD ABOVE BOUND"
                    ok = False
                print("  %-8s %-11s %14.6g %14.6g %14.6g %7.2f%% %5.0f%%%s" % (
                    w, m["name"], q1, med, q3, 100 * spread, 100 * m["bound"], flag))
        report["sets"].append(rep)
    for w in workloads:
        shares = [s[w]["failed"] / max(1, s[w]["attempted"]) for s in sets]
        if len(set(shares)) != 1:
            print("%s: failed share differs between sets: %s" % (w, shares))
            ok = False
    if len(sets) >= 2:
        print("\nsecond set against first (median change; bound = allowed worsening)")
        for w in workloads:
            for m in metrics:
                a = report["sets"][0][w]["metrics"][m["name"]]["median"]
                b = report["sets"][1][w]["metrics"][m["name"]]["median"]
                change = (b - a) / a if a else 0.0
                worse = change if m["better"] == "lower" else -change
                flag = "  WORSE THAN BOUND" if worse > m["bound"] else ""
                if flag:
                    ok = False
                print("  %-8s %-11s %+7.2f%% (bound %.0f%%)%s" % (
                    w, m["name"], 100 * change, 100 * m["bound"], flag))
    out = os.path.join(build_dir(), "repeat.json")
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
    print("\nrepeat %s; report written to %s" % ("PASSED" if ok else "FAILED", out))
    return 0 if ok else 1


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "repeat":
        ap = argparse.ArgumentParser(prog="run.py repeat")
        ap.add_argument("--runs", type=int, default=10)
        ap.add_argument("--sets", type=int, default=2)
        ap.add_argument("--seconds", type=int, default=0)
        ap.add_argument("--seed0", type=int, default=101)
        ap.add_argument("--workload", action="append")
        args = ap.parse_args(sys.argv[2:])
        spec = load_spec()
        sys.exit(repeat(args, build(), spec))

    ap = argparse.ArgumentParser(prog="run.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(2, "unknown workload %s" % args.workload)
    exe = build()
    code, result, _, _ = run_once(exe, spec, args.workload, args.seed, args.seconds,
                                  args.trace == 1)
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
