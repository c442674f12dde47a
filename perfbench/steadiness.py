"""Run the benchmark repeatedly and report the spread of every metric.

Run from the root of a bitweave checkout:

    python3 perfbench/steadiness.py --seeds 1-10 --out runs.json
    python3 perfbench/steadiness.py --seeds 11-20 --compare runs.json

Each seed runs every workload of BENCHMARK.json once for its run_seconds,
in an order that rotates from seed to seed, so slow drift of a shared host
spreads over all workloads instead of landing on one.  For each workload and
end-to-end metric it prints the median and quartiles of the runs
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median next
to the metric's bound in BENCHMARK.json.  A spread under a third of the
bound is reported as steady.  With --compare it also prints how far each
median moved from the earlier set, as a share of that set's median,
worse-direction positive.

Exit code: 1 when a run fails or prints no result, or when a spread or a
worsening median exceeds its bound; else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(bench: dict, workload: str, seed: int) -> dict | None:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def summarize(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def main() -> int:
    parser = argparse.ArgumentParser(description="repeat the benchmark and report spreads")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--out", help="write every run's result to this JSON file")
    parser.add_argument("--compare", help="a file written by --out from an earlier set")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    seeds = seed_list(args.seeds)

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    ok = True
    for i, seed in enumerate(seeds):
        k = i % len(workloads)
        for workload in workloads[k:] + workloads[:k]:
            result = run_once(bench, workload, seed)
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED {result}", flush=True)
                ok = False
                continue
            runs[workload].append({"seed": seed, **result})
            shown = ", ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}" for m in metrics)
            print(f"{workload} seed {seed}: {shown}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))

    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    print(f"\n{'workload':9s} {'metric':26s} {'n':>3s} {'median':>14s} {'q1':>14s} {'q3':>14s}"
          f" {'spread':>7s} {'bound':>6s}  verdict" + ("       moved" if earlier else ""))
    for workload in workloads:
        for metric in metrics:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            if len(values) < 2:
                continue
            median, q1, q3 = summarize(values)
            spread = (q3 - q1) / median if median else float("inf")
            bound = metric["bound"]
            verdict = "steady" if spread < bound / 3 else "within" if spread <= bound else "TOO WIDE"
            ok = ok and spread <= bound
            line = (f"{workload:9s} {name:26s} {len(values):3d} {median:14.6g} {q1:14.6g} {q3:14.6g}"
                    f" {spread:7.3f} {bound:>6}  {verdict:9s}")
            before = [r["metrics"][name]["value"] for r in earlier.get(workload, [])]
            if before:
                base = statistics.median(before)
                sign = 1 if metric["better"] == "lower" else -1
                moved = sign * (median - base) / base
                line += f"  {moved:+.3f}" + (" WORSE THAN BOUND" if moved > bound else "")
                ok = ok and moved <= bound
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
