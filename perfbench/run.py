"""ghw benchmark: one workload for a fixed time, outputs checked, one JSON line.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; ghw is imported from its src/.  The
workloads (see workloads.py and README.md):

- cli-cold      each request in a fresh `python -m ghw` process
- spec-sweep    a seeded library session over ~200 stratified small specs
- oracle-check  closed form, search and definitional oracle on five codes

A run repeats whole rounds of its workload until the next round would
overrun --seconds (always at least one).  Every operation's output is
checked against the benchmark's own brute force (checks.py); a failed
check fails the operation.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under --trace 0 and the per-layer metrics
under --trace 1 (a separate run with wrappers installed, see layers.py).
Per-operation details go to perfbench/results/, spans of a traced run to
perfbench/results/trace-*.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
RESULTS = BENCH / "results"
WORKLOADS = ("cli-cold", "spec-sweep", "oracle-check")
SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 150
EXACT_LIMIT = 30000  # subspaces of F_q^k up to which the exact hierarchy is checked


class Child:
    """A finished child process: output, exit code, wall, CPU and peak RSS."""

    def __init__(self, argv):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop("GHW_MAX_ENUM", None)
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        chunks = {}
        readers = [
            threading.Thread(target=lambda k, f: chunks.__setitem__(k, f.read()), args=(k, f))
            for k, f in (("out", proc.stdout), ("err", proc.stderr))
        ]
        for reader in readers:
            reader.start()
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        self.wall_s = time.perf_counter() - start
        for reader in readers:
            reader.join()
        proc.stdout.close()
        proc.stderr.close()
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024  # Linux reports KiB
        self.stdout = chunks["out"].decode()
        self.stderr = chunks["err"].decode()


def python_child(script: str, *args) -> Child:
    return Child([sys.executable, str(BENCH / script), *map(str, args)])


def draw_inputs(workload: str, seed: int, path: Path):
    """The run's inputs, drawn from the seed before anything is timed and
    written to `path` for the worker processes: cli-cold's requests, or
    [q, m, sets, complement, stratum] specs."""
    if workload == "cli-cold":
        drawn = workloads.cli_round_requests(seed)
    elif workload == "spec-sweep":
        drawn = [spec[1:] + (spec[0],) for spec in workloads.sweep_specs(seed)]
    else:
        drawn = [code[1:5] + (workloads.stratum_of(*code[1:5]),) for code in workloads.ORACLE_CODES]
    path.write_text(json.dumps(drawn))
    return json.loads(path.read_text())


def setup_sample(workload: str, inputs: Path) -> float:
    child = python_child(
        "worker.py", "--workload", workload, "--inputs", inputs,
        "--spawned-at", repr(time.time()), "--setup-only",
    )
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        raise SystemExit(child.returncode or 1)
    return json.loads(child.stdout.splitlines()[-1])["setup_s"]


# ----------------------------------------------------------------------
# rounds


def cli_round(requests, inputs: Path, trace: int):
    """One pass over the requests.  A set-up sample follows each request,
    so that the samples spread over the run instead of one burst: the
    host's speed drifts over seconds, and a burst samples one moment."""
    ops, reports, spans, setups = [], [], [], []
    for req_id, argv, _ in requests:
        if trace:
            child = python_child("launch.py", *argv)
        else:
            child = Child([sys.executable, "-m", "ghw", *argv])
        stderr = child.stderr
        if trace and layers.TRACE_MARK in stderr:
            stderr, payload = stderr.rsplit(layers.TRACE_MARK, 1)
            payload = json.loads(payload)
            reports.append(payload)
            spans.append({"op": req_id, "spans": payload["spans"]})
        ops.append(
            {
                "id": req_id,
                "argv": argv,
                "returncode": child.returncode,
                "stdout": child.stdout,
                "stderr": stderr,
                "wall_s": child.wall_s,
                "cpu_s": child.cpu_s,
                "rss_mb": child.rss_mb,
            }
        )
        setups.append(setup_sample("cli-cold", inputs))
    return {
        "ops": ops,
        "rss_mb": max(op["rss_mb"] for op in ops),
        "setups": setups,
        "reports": reports,
        "spans": spans,
    }


def worker_round(workload: str, inputs: Path, trace: int):
    child = python_child(
        "worker.py", "--workload", workload, "--inputs", inputs, "--trace", trace,
        "--spawned-at", repr(time.time()),
    )
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        raise SystemExit(f"perfbench: {workload} worker exited with {child.returncode}")
    result = json.loads(child.stdout.splitlines()[-1])
    for i, op in enumerate(result["ops"]):
        op["id"] = f"{i:03d}"
    return {
        "ops": result["ops"],
        "rss_mb": child.rss_mb,
        "setups": [result["setup_s"]],
        "reports": [result["layers"]] if trace else [],
        "spans": [{"op": "worker", "spans": result["spans"]}] if trace else [],
    }


# ----------------------------------------------------------------------
# checks


_HEAD_ROW = re.compile(r"^\[(\d+), (\d+)\] code over GF\((\d+)\)")
_RANK_ROW = re.compile(r"^\s+r=(\d+)\s+d_r=(\d+)\s+\S+$")
_WITNESS_ROW = re.compile(r"^\s+witness r=(\d+): \[(.*)\]$")


def spec_of_argv(argv):
    flags = dict(zip(argv, argv[1:]))
    sets = tuple(tuple(int(x) for x in s.split(",")) for s in flags["--sets"].split(";"))
    return int(flags["--q"]), int(flags["--m"]), sets, "--complement" in argv


class Checker:
    """Checks outputs against brute force, caching the brute force per spec."""

    def __init__(self):
        self._params = {}
        self._exact = {}

    def params(self, q, m, sets, complement):
        key = (q, m, tuple(map(tuple, sets)), complement)
        if key not in self._params:
            self._params[key] = checks.code_parameters(*key)
        return self._params[key]

    def exact(self, q, m, sets, complement):
        key = (q, m, tuple(map(tuple, sets)), complement)
        if key not in self._exact:
            self._exact[key] = checks.exact_hierarchy(*key)
        return self._exact[key]

    def hierarchy(self, spec, n, k, values):
        """Recomputed n and k, the properties of every hierarchy, and on
        codes small enough the exact hierarchy by subcode enumeration."""
        q = spec[0]
        bn, bk, d1, nonzero = self.params(*spec)
        problems = []
        if (n, k) != (bn, bk):
            problems.append(f"[n, k] = [{n}, {k}], recomputed [{bn}, {bk}]")
        problems += checks.hierarchy_problems(values, q, bn, bk, d1, nonzero)
        if not problems and checks.subspace_count(q, bk) <= EXACT_LIMIT:
            exact = self.exact(*spec)
            if list(values) != exact:
                problems.append(f"hierarchy {list(values)}, subcode enumeration gives {exact}")
        return problems

    def cli(self, op):
        argv, out = op["argv"], op["stdout"]
        if op["returncode"] != 0:
            return [f"exit code {op['returncode']}: {op['stderr'].strip()[-300:]}"]
        if argv[0] == "verify-paper":
            lines = out.splitlines()
            passed = sum(line.startswith("PASS ") for line in lines)
            if passed != 13 or not lines or lines[-1] != "13 cases: 13 passed, 0 failed":
                return [f"verify-paper: {passed} PASS rows, last line {lines[-1:]!r}"]
            return []
        spec = spec_of_argv(argv)
        if argv[0] == "params":
            got = json.loads(out)
            n, k, d1, _ = self.params(*spec)
            problems = []
            if (got["n"], got["k"], got["d1"]) != (n, k, d1):
                problems.append(f"params {got['n'], got['k'], got['d1']}, recomputed {n, k, d1}")
            want = "formula" if op["id"] == "params-formula" else "prop1-search"
            if got["method"] != want:
                problems.append(f"params answered by {got['method']}, expected {want}")
            return problems
        if "--format" in argv:
            got = json.loads(out)
            want = "prop1-search" if "brute" in argv else "both"
            problems = [] if got["method"] == want else [f"method {got['method']}, expected {want}"]
            return problems + self.hierarchy(spec, got["n"], got["k"], got["hierarchy"])
        return self.verbose(spec, out)

    def verbose(self, spec, out):
        lines = out.splitlines()
        head = _HEAD_ROW.match(lines[0]) if lines else None
        if head is None:
            return [f"unparsable text output {lines[:1]!r}"]
        n, k = int(head.group(1)), int(head.group(2))
        values = [int(m.group(2)) for m in map(_RANK_ROW.match, lines) if m]
        problems = self.hierarchy(spec, n, k, values)
        witnesses = {int(m.group(1)): m.group(2).split() for m in map(_WITNESS_ROW.match, lines) if m}
        if sorted(witnesses) != list(range(1, k + 1)):
            return problems + [f"witnesses for ranks {sorted(witnesses)}, expected 1..{k}"]
        for r, rows in witnesses.items():
            matrix = [[int(c) for c in row] for row in rows]
            problems += checks.witness_problems(*spec, r, matrix, values[r - 1])
        return problems

    def library(self, workload, op):
        if "error" in op:
            return [op["error"]]
        spec, stratum = tuple(op["input"][:4]), op["input"][4]
        search = op["search"]
        problems = self.hierarchy(spec, search["n"], search["k"], search["values"])
        # the table that answered must be the one whose hypotheses the
        # benchmark's restatement (workloads.claimants) puts first
        table = op["formula"]["table"].removesuffix(":formula") if op["formula"] else "none"
        if table != stratum:
            problems.append(f"closed form {table} answered a spec of stratum {stratum}")
        others = [("formula", op["formula"])]
        if workload == "oracle-check":
            others.append(("oracle", op["oracle"]))
        for name, other in others:
            if other is None:
                continue
            if (other["n"], other["k"], other["values"]) != (search["n"], search["k"], search["values"]):
                problems.append(
                    f"{name} [{other['n']}, {other['k']}] {other['values']} differs from "
                    f"search [{search['n']}, {search['k']}] {search['values']}"
                )
        return problems


def check_round(workload, rnd, checker):
    for op in rnd["ops"]:
        try:
            if workload == "cli-cold":
                op["problems"] = checker.cli(op)
            else:
                op["problems"] = checker.library(workload, op)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            op["problems"] = [f"unreadable output: {type(exc).__name__}: {exc}"]
    if workload == "cli-cold":
        hierarchies = {
            op["id"]: json.loads(op["stdout"])["hierarchy"]
            for op in rnd["ops"]
            if op["id"] == "brute-q2m8" and not op["problems"]
        }
        for op in rnd["ops"]:
            if op["id"] == "brute-q2m8-t2" and not op["problems"] and hierarchies:
                got = json.loads(op["stdout"])["hierarchy"]
                if got != hierarchies["brute-q2m8"]:
                    op["problems"].append(f"--threads 2 gave {got}, serial {hierarchies['brute-q2m8']}")


# ----------------------------------------------------------------------
# metrics


def gmean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def per_request(rnd, key):
    """Median of `key` per request id in a round (one value per request,
    however often the round repeated it)."""
    samples = {}
    for op in rnd["ops"]:
        samples.setdefault(op["id"], []).append(op[key])
    return [statistics.median(v) for v in samples.values()]


def end_to_end(rounds, setups):
    def med(f):
        return statistics.median(f(rnd) for rnd in rounds)

    return {
        "wall_s": {"value": med(lambda r: sum(per_request(r, "wall_s"))), "unit": "s"},
        "latency_gmean_ms": {
            "value": med(lambda r: gmean([s * 1000 for s in per_request(r, "wall_s")])),
            "unit": "ms",
        },
        "cpu_s": {"value": med(lambda r: sum(per_request(r, "cpu_s"))), "unit": "s"},
        "peak_rss_mb": {"value": med(lambda r: r["rss_mb"]), "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ghw benchmark, one workload per run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ghw" / "__init__.py").is_file():
        print(f"perfbench: no ghw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inputs = RESULTS / f"inputs-{tag}.json"
    drawn = draw_inputs(args.workload, args.seed, inputs)
    start = time.perf_counter()
    rounds, round_s = [], []
    while True:
        began = time.perf_counter()
        if args.workload == "cli-cold":
            rounds.append(cli_round(drawn, inputs, args.trace))
        else:
            rounds.append(worker_round(args.workload, inputs, args.trace))
        round_s.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(round_s) > args.seconds:
            break
    setups = [s for r in rounds for s in r["setups"]]
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(args.workload, inputs))

    checker = Checker()
    for rnd in rounds:
        check_round(args.workload, rnd, checker)
    ops = [op for rnd in rounds for op in rnd["ops"]]
    failed = [op for op in ops if op["problems"]]
    for op in failed[:10]:
        print(f"FAILED {args.workload} {op['id']}: {'; '.join(op['problems'])}", file=sys.stderr)

    if args.trace:
        metrics = layers.layer_metrics([rep for r in rounds for rep in r["reports"]], len(rounds))
        missing = sorted(set(layers.METRICS) - set(metrics))
        if missing:
            print(f"absent layers (entry point not found): {', '.join(missing)}", file=sys.stderr)
    else:
        metrics = end_to_end(rounds, setups)

    detail = {
        "rounds": len(rounds),
        "round_s": round_s,
        "setups_s": setups,
        "round_wall_s": [sum(per_request(r, "wall_s")) for r in rounds],
        "ops": [
            {k: op.get(k) for k in ("id", "wall_s", "cpu_s", "rss_mb", "problems", "input")}
            for op in ops
        ],
        "metrics": metrics,
        "run_s": time.perf_counter() - start,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(detail, indent=1))
    if args.trace:
        spans = [s for r in rounds for s in r["spans"]]
        (RESULTS / f"trace-{tag}.json").write_text(json.dumps(spans))

    print(
        f"{args.workload}: {len(rounds)} round(s), {len(ops)} operations, "
        f"{len(failed)} failed, {time.perf_counter() - start:.1f} s",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(ops),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
