"""One round of an in-process workload, in a fresh process.

Run by run.py, never by hand:

    python3 perfbench/worker.py --workload spec-sweep --inputs <file> --trace 0 --spawned-at <time.time()>

run.py draws the round's specs from the seed and writes them to the
inputs file, so the benchmark's own sampler stays out of set-up.  This
process imports ghw from the checkout's src/, turns the specs into ghw's
inputs (normalize, field_new), reports how long that took from process
start (set-up), then runs the round's operations one at a time and
prints one JSON line with each operation's wall time, CPU time and
outputs.  It checks nothing: run.py checks the outputs, so the checks'
memory and time stay out of this process.  With --setup-only it stops
after set-up.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def import_ghw():
    """ghw from this checkout's src/, or an exit with code 2."""
    try:
        import ghw
    except ImportError as exc:
        print(f"perfbench: cannot import ghw from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(ghw.__file__).resolve().parent != ROOT / "src" / "ghw":
        print(f"perfbench: ghw imported from {ghw.__file__}, not this checkout", file=sys.stderr)
        sys.exit(2)
    return ghw


def make_inputs(ghw, workload: str, drawn):
    """ghw's inputs for the drawn [q, m, sets, complement, stratum] specs;
    cli-cold's requests need nothing from ghw."""
    if workload == "cli-cold":
        return drawn
    from workloads import prime_power

    out = []
    for item in drawn:
        q, m, sets, complement = item[:4]
        spec = ghw.normalize(m, sets, complement)
        out.append((item, ghw.field_new(*prime_power(q)), spec))
    return out


def _formula(ghw, q, spec):
    try:
        h = ghw.hierarchy_formula(q, spec)
    except ghw.NotApplicable:
        return None
    return {"n": h.n, "k": h.k, "values": list(h.values), "table": h.provenance[0].split(":row")[0]}


def _hierarchy(h):
    return {"n": h.n, "k": h.k, "values": list(h.values)}


def run_op(ghw, workload, field, spec):
    """One operation: the closed form where one applies and the search;
    on oracle-check also the definitional enumeration."""
    out = {"formula": _formula(ghw, field.q, spec)}
    out["search"] = _hierarchy(ghw.hierarchy_prop1(field, spec))
    if workload == "oracle-check":
        code = ghw.build_code(field, spec)
        out["oracle"] = _hierarchy(ghw.hierarchy_definitional(code))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ghw = import_ghw()
    inputs = make_inputs(ghw, args.workload, json.loads(args.inputs.read_text()))
    setup_s = time.time() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    recorder = None
    if args.trace:
        import layers

        recorder = layers.install()
    ops = []
    for drawn, field, spec in inputs:
        op = {"input": drawn}
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            op.update(run_op(ghw, args.workload, field, spec))
        except Exception as exc:  # a failing call fails its operation, not the round
            op["error"] = f"{type(exc).__name__}: {exc}"
        op["wall_s"] = time.perf_counter() - wall0
        op["cpu_s"] = time.process_time() - cpu0
        ops.append(op)
    result = {"setup_s": setup_s, "ops": ops}
    if recorder is not None:
        import layers

        result["layers"] = layers.report(recorder)
        result["spans"] = recorder.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
