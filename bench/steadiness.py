"""Steadiness mode: repeat workloads and report the spread of every figure.

    python3 bench/steadiness.py --workload large-ell --runs 10
    python3 bench/steadiness.py --runs 10            # every workload

Runs ``bench/run.py`` once per seed (seeds ``--first-seed`` onwards), each
run in a fresh process for the ``run_seconds`` of ``BENCHMARK.json``, the
length its bounds apply to, and prints for each workload the median and
quartiles of the raw and the drift-corrected times, and of every end-to-end
metric, with the spread (q3 - q1) / median beside the metric's bound from
``BENCHMARK.json``.  The summary is also written to
``bench/out/steadiness-<workload>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((OUT_DIR / f"{workload}-seed{seed}-trace0.json").read_text())
    return result, record["detail"]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to repeat (default: every workload)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    OUT_DIR.mkdir(exist_ok=True)
    for workload in args.workload or names:
        values: dict[str, list[float]] = {}
        raw: dict[str, list[float]] = {"raw_s": [], "raw_p50_ms": [], "raw_tail_ms": [], "setup_raw_s": []}
        shares = set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, detail = run_once(workload, seed, seconds)
            shares.add((result["failed"], result["attempted"], result["correct"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name in raw:
                raw[name].append(detail[name])
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
        summary = {"workload": workload, "runs": args.runs, "seconds": seconds,
                   "failed_attempted_correct": sorted(shares), "metrics": {}, "raw": {}}
        print(f"{workload}: {args.runs} runs, (failed, attempted, correct) = {sorted(shares)}")
        print(f"  {'figure':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in list(values.items()) + list(raw.items()):
            stats = quartiles(vals)
            bound = bounds.get(name)
            target = summary["metrics"] if name in values else summary["raw"]
            target[name] = dict(stats, bound=bound, values=vals)
            flag = "" if bound is None else ("  over 1/3 of bound" if stats["spread"] > bound / 3 else "")
            print(f"  {name:24} {stats['median']:12.6g} {stats['q1']:12.6g} {stats['q3']:12.6g} "
                  f"{stats['spread']:8.4f} {'' if bound is None else bound:>6}{flag}")
        (OUT_DIR / f"steadiness-{workload}.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
