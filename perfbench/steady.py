"""Steadiness mode: run each workload many times and report the spread.

    python3 perfbench/steady.py --runs 10 [--seed-base 1000]

Every run uses the run length and the workloads of BENCHMARK.json, since
the bounds apply at that length.  Run i uses seed BASE + i and the
workloads in turn, reversing their order on every other run so drift
over time does not always land on the same workload.  For every
end-to-end metric it prints the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median next to
the bound in BENCHMARK.json, and exits with 1 if a spread exceeds its
bound or the share of failed operations differs between runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    chosen = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="spread of every end-to-end metric")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1000)
    args = parser.parse_args(argv)

    results = {w: [] for w in chosen}
    for i in range(args.runs):
        order = chosen if i % 2 == 0 else chosen[::-1]
        for workload in order:
            cmd = RUN + ["--workload", workload, "--seed", str(args.seed_base + i),
                         "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            line = json.loads(proc.stdout.splitlines()[-1])
            results[workload].append(line)
            print(f"run {i} {workload}: failed {line['failed']}/{line['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in line["metrics"].items()),
                  flush=True)

    worst = True
    summary = {}
    print(f"\n{'workload':<13} {'metric':<17} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}")
    for workload, lines in results.items():
        shares = {line["failed"] / line["attempted"] for line in lines}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [line["metrics"][name]["value"] for line in lines]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            held = spread <= bound
            worst &= held
            summary.setdefault(workload, {})[name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound, "values": values,
            }
            print(f"{workload:<13} {name:<17} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} "
                  f"{spread:>7.3f} {bound:>6}{'' if held else '  OVER'}")
        print(f"{workload:<13} failed share {sorted(shares)}")
        worst &= len(shares) == 1
    out = ROOT / "perfbench" / "results"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.seed_base}.json").write_text(json.dumps(summary, indent=1))
    return 0 if worst else 1


if __name__ == "__main__":
    sys.exit(main())
