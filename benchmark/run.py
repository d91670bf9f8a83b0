#!/usr/bin/env python3
"""lonbench runner: builds lonbench, runs workloads, reports and compares.

    python3 benchmark/run.py
        Builds lonbench, runs every workload in its own process (the
        end-to-end pass, then the traced pass), prints one
        `workload metric value unit` line per metric and writes
        results.json plus each workload's trace, metric and layer dumps
        to --out (default .bench_build/out).

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
        One run of one workload. The last line of stdout is one JSON object
        with the keys correct, attempted, failed and metrics: the end-to-end
        metrics of BENCHMARK.json with --trace 0, the per-layer ones with 1.

    python3 benchmark/run.py --compare A.json B.json
        Applies each end-to-end metric's direction and bound from
        BENCHMARK.json to two results.json files, and requires identical
        virtual results where both used the same seed. Exits 1 on any
        regression.

Everything it builds or writes stays under .bench_build/ in the checkout.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BUILD = ROOT / ".bench_build" / "lonbench"
BINARY = BUILD / "lonbench"
RUN_TIMEOUT_S = 170  # a run that hangs is killed inside three minutes


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no repository sources under {ROOT}; cannot build lonbench")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "lonbench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def lonbench(workload, seed, seconds, trace, out_dir):
    """Runs lonbench once; returns its JSON report (exits if it crashed)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        out_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", "--out", str(out_dir)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit(f"run.py: lonbench failed on {workload} (exit {proc.returncode})")
    return json.loads(lines[-1])


def declared(trace):
    return SPEC["per_layer" if trace else "end_to_end"]


def result_line(report, trace):
    """The one-line result: exactly the declared metrics, with their units."""
    got = report["metrics"]
    metrics = {}
    correct = report["ok"]
    for m in declared(trace):
        value = got.get(m["name"])
        if value is None or value["unit"] != m["unit"] or value["value"] is None:
            correct = False
            continue
        metrics[m["name"]] = value
    if set(got) != {m["name"] for m in declared(trace)}:
        correct = False
    return {"correct": correct, "attempted": int(report["fetch_steps"]),
            "failed": int(report["failed"]), "metrics": metrics}


def run_one(args):
    build()
    report = lonbench(args.workload, args.seed, args.seconds, args.trace == 1, args.out)
    result = result_line(report, args.trace == 1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    build()
    results = {"nproc": os.cpu_count(), "seed": args.seed, "seconds": args.seconds,
               "workloads": {}}
    ok = True
    for w in SPEC["workloads"]:
        name = w["name"]
        entry = {}
        for trace in (0, 1):
            report = lonbench(name, args.seed, args.seconds, trace == 1, args.out)
            result = result_line(report, trace == 1)
            ok = ok and result["correct"]
            entry["layers" if trace else "e2e"] = result["metrics"]
            entry.setdefault("checks", {}).update(report["checks"])
            entry["digest"] = report["digest"]
            entry["fetch_steps"] = report["fetch_steps"]
            entry["failed"] = report["failed"]
            for metric, v in result["metrics"].items():
                print(f"{name} {metric} {v['value']:.6g} {v['unit']}")
            failed_checks = [c for c, passed in report["checks"].items() if not passed]
            if failed_checks:
                print(f"{name} FAILED checks: {' '.join(failed_checks)}")
        results["workloads"][name] = entry
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "results.json"
    path.write_text(json.dumps(results, indent=1) + "\n")
    print(f"# nproc={results['nproc']} seed={args.seed}; wrote {path} "
          f"and per-workload .trace.json/.metrics.jsonl/.layers.json")
    print("# all checks passed" if ok else "# SOME CHECKS FAILED")
    return 0 if ok else 1


def compare(path_a, path_b):
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    same_seed = a["seed"] == b["seed"]
    bad = 0
    print(f"{'workload':18s} {'metric':18s} {'A':>12s} {'B':>12s} {'change':>8s} bound")
    for w in SPEC["workloads"]:
        name = w["name"]
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            print(f"{name}: missing from one side")
            bad += 1
            continue
        if same_seed and wa["digest"] != wb["digest"]:
            print(f"{name}: virtual results differ under the same seed")
            bad += 1
        for m in SPEC["end_to_end"]:
            if m["name"] not in wa["e2e"] or m["name"] not in wb["e2e"]:
                print(f"{name} {m['name']}: missing from one side")
                bad += 1
                continue
            va, vb = wa["e2e"][m["name"]]["value"], wb["e2e"][m["name"]]["value"]
            change = (vb - va) / va
            worse = change if m["better"] == "lower" else -change
            verdict = "REGRESSION" if worse > m["bound"] else ""
            bad += bool(verdict)
            print(f"{name:18s} {m['name']:18s} {va:12.6g} {vb:12.6g} {change:+8.2%} "
                  f"{m['bound']:.0%} {verdict}")
    print("# compare: pass" if bad == 0 else f"# compare: {bad} failure(s)")
    return 0 if bad == 0 else 1


def main():
    names = [w["name"] for w in SPEC["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=names)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=ROOT / ".bench_build" / "out")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
