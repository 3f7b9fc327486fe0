#!/usr/bin/env python3
"""icvbe benchmark: build the runner, run a workload, check it, report.

  python3 benchmark/run.py --workload <lot|grid_sweep|tree_load|serve_mixed|all>
                           [--seed N] [--seconds S] [--trace 0|1]
                           [--repeat K] [--out results.jsonl]
  python3 benchmark/run.py compare base.jsonl new.jsonl

Run from the repository root. The last line of stdout is one JSON object:
for one workload, {"correct", "attempted", "failed", "metrics"} with the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1) of
BENCHMARK.json; for --workload all, that object per workload. --out
appends every run, with its environment, to a JSON-lines result set;
`compare` sets two result sets side by side under BENCHMARK.json's bounds.
"""

import argparse
import datetime
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmark"
BUILD = ROOT / ".bench_build" / "cmake"
RUNNER = BUILD / "icvbe_bench"
DEFAULT_SEED = 1
HELD_OUT_SEED = 7  # later gain claims must also hold on this seed
WORKLOADS = ["lot", "grid_sweep", "tree_load", "serve_mixed"]
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def contract():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure once, then build the runner incrementally."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("the icvbe sources are not here; run from a repository checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD.parent / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "icvbe_bench",
                  "-j4"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                fail(f"build failed; see {log}", 1)


def environment(runner_env):
    env = dict(runner_env)
    try:
        env["git_sha"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        env["git_sha"] = "unknown (not a git checkout)"
    env["date"] = datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds")
    return env


def run_runner(workload, seed, seconds, trace):
    cmd = [str(RUNNER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: runner exceeded {RUN_TIMEOUT_S} s", 1)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{workload}: runner exited with {proc.returncode}", 1)
    return json.loads(proc.stdout)


def fmt(value):
    return f"{value:.4g}"


def report_end_to_end(rows, units):
    names = list(units)
    header = ["workload"] + [f"{n} [{units[n]}]" for n in names] + [
        "fail_ratio", "notes"]
    table = [header]
    for workload, rec, metrics, extra in rows:
        notes = [f"{extra['window']}; tail = p{extra['op_tail_pct']:.1f}"
                 f" of {extra['ops']} ops a window, {extra['op_tail_beyond']}"
                 " beyond"]
        if "eg_err_mev" in extra:
            notes.append(f"eg_err_mev = {fmt(extra['eg_err_mev'])} meV")
        if "first_row_ms" in extra:
            notes.append(f"first_row_ms = {fmt(extra['first_row_ms'])} ms")
        table.append([workload] + [fmt(metrics[n]) for n in names] + [
            f"{fmt(extra['fail_ratio'])} ({rec['failed']}/{rec['attempted']})",
            "; ".join(notes)])
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def report_trace(rec, layer_metrics, units):
    print(f"per-layer metrics ({rec['workload']}, traced run):")
    for name, value in layer_metrics.items():
        print(f"  {name} = {fmt(value)} {units[name]}")
    traced = rec["traced_op_ms"]
    print(f"spans recorded: {len(rec['spans'])}")
    for in_ops, title in ((True, "traced ops"),
                          (False, "replays and reference runs")):
        split = stats.layer_split(rec, in_ops)
        total = sum(split.values())
        if not total:
            continue
        print(f"layer self time over {title} (total {fmt(total)} ms):")
        for layer, ms in sorted(split.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:20s} {fmt(ms):>10s} ms  {100 * ms / total:5.1f} %")
    if rec["op_ms"] and traced:
        base = stats.median(rec["op_ms"])
        ratio = stats.median(traced) / base
        print(f"tracing overhead: traced op p50 / untraced op p50 = "
              f"{ratio:.4f} (base {fmt(base)} ms over {len(rec['op_ms'])} "
              f"untraced ops; {len(traced)} traced ops)")


def result_line(rec, metrics, units):
    correct = rec["failed"] == 0 and not rec["problems"]
    attempted = rec["attempted"]
    return {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": rec["failed"] if attempted else 1,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }


def run_once(args, seed, spec):
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    raw = run_runner(args.workload, seed, args.seconds, args.trace)
    env = environment(raw["env"])
    print(f"icvbe benchmark: workload={args.workload} seed={seed} "
          f"(default {DEFAULT_SEED}, held-out {HELD_OUT_SEED}) "
          f"seconds={args.seconds} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    rows, results = [], {}
    for rec in raw["records"]:
        for problem in rec["problems"]:
            print(f"CHECK FAILED ({rec['workload']}): {problem}")
        if not rec["op_ms"]:
            print(f"CHECK FAILED ({rec['workload']}): no op completed")
            rec["problems"].append("no op completed")
            results[rec["workload"]] = result_line(rec, {}, {})
            continue
        e2e, extra = stats.end_to_end(rec)
        rows.append((rec["workload"], rec, e2e, extra))
        if args.trace:
            layers = stats.per_layer(rec, list(layer_units))
            report_trace(rec, layers, layer_units)
            results[rec["workload"]] = result_line(rec, layers, layer_units)
        else:
            results[rec["workload"]] = result_line(rec, e2e, e2e_units)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({
                    "workload": rec["workload"], "seed": seed,
                    "seconds": args.seconds, "trace": args.trace, "env": env,
                    "end_to_end": e2e, "extra": extra,
                    "per_layer": results[rec["workload"]]["metrics"]
                    if args.trace else {},
                    "correct": results[rec["workload"]]["correct"]}) + "\n")
    print("end-to-end (untraced ops):")
    report_end_to_end(rows, e2e_units)
    if args.workload == "all":
        return results
    return results[args.workload]


def compare(base_path, new_path):
    spec = contract()

    def load(path):
        sets = {}
        with open(path) as f:
            for line in f:
                row = json.loads(line)
                if row["trace"] == 0:
                    sets.setdefault(row["workload"], []).append(
                        row["end_to_end"])
        return sets

    base, new = load(base_path), load(new_path)
    print(f"base: {base_path}\nnew:  {new_path}")
    for workload in [w for w in WORKLOADS if w in base and w in new]:
        print(f"{workload}: {len(base[workload])} base runs, "
              f"{len(new[workload])} new runs")
        for m in spec["end_to_end"]:
            a = [r[m["name"]] for r in base[workload]]
            b = [r[m["name"]] for r in new[workload]]
            qa, qb = stats.quartiles(a), stats.quartiles(b)
            v = stats.verdict(a, b, m["better"], m["bound"])
            print(f"  {m['name']:12s} base {fmt(qa[1])} [{fmt(qa[0])}, "
                  f"{fmt(qa[2])}]  new {fmt(qb[1])} [{fmt(qb[0])}, "
                  f"{fmt(qb[2])}] {m['unit']}  new/base = "
                  f"{qb[1] / qa[1]:.4f} (base {fmt(qa[1])} {m['unit']}, "
                  f"bound {m['bound']})  {v}")


def main(argv):
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            fail("usage: run.py compare base.jsonl new.jsonl")
        compare(argv[1], argv[2])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs, with seeds seed, seed+1, ...")
    parser.add_argument("--out", help="append every run to this JSON-lines file")
    args = parser.parse_args(argv)
    if not (ROOT / "src").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        fail("the icvbe sources are not here; run from a repository checkout")
    spec = contract()
    build()
    for i in range(args.repeat):
        result = run_once(args, args.seed + i, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main(sys.argv[1:]))
