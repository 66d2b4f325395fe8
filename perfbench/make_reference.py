#!/usr/bin/env python3
"""Record the reference verdicts of every pool point of the bel benchmark.

    python3 perfbench/make_reference.py [workload ...]

Runs each pool point of each workload once (``workloads.pool_configs``), in
one worker process per available CPU, and writes
``perfbench/reference/<workload>.json``: for every run key the ordered check
names and their verdicts.  The benchmark fails a run whose verdicts
differ from these.  Verdicts that are false at the recording commit are kept
as they are; the script prints them so they can be listed in the notes.  A
pool point that raises or writes non-strict JSON is reported and stops the
script, because the workloads must hold only runs that complete.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import multiprocessing
import os
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402  (benchmark helpers: paths, artifact checks)
import workloads  # noqa: E402


def _run_point(task):
    text, index = task
    from bel.scenarios import execute_run, expand_runs, parse_config

    spec = expand_runs(parse_config(text))[index]
    key = workloads.run_key(spec.scenario, spec.params)
    run.WORK.mkdir(parents=True, exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="reference-", dir=run.WORK))
    try:
        try:
            report = execute_run(spec, out)
        except Exception as exc:  # recorded, then the script stops
            return key, None, None, f"raised {type(exc).__name__}: {exc}"
        _, problem = run.check_artifacts(run.Item(spec, key, out), None)
        if problem is not None:
            return key, None, None, problem
        names = [c["name"] for c in report["checks"]]
        bits = "".join("1" if c["verdict"] else "0" for c in report["checks"])
        return key, names, bits, None
    finally:
        shutil.rmtree(out, ignore_errors=True)


def record(workload: str) -> int:
    from bel.scenarios import expand_runs, parse_config

    tasks = [(text, i) for text in workloads.pool_configs(workload)
             for i in range(len(expand_runs(parse_config(text))))]
    ctx = multiprocessing.get_context("spawn")
    workers = len(os.sched_getaffinity(0))
    with concurrent.futures.ProcessPoolExecutor(workers, mp_context=ctx) as pool:
        results = list(pool.map(_run_point, tasks, chunksize=4))

    failures = [(key, problem) for key, _, _, problem in results if problem]
    for key, problem in failures:
        print(f"{workload}: {key}: {problem}", file=sys.stderr)
    if failures:
        return 1

    sets, runs, false_checks = [], {}, Counter()
    for key, names, bits, _ in sorted(results):
        if names not in sets:
            sets.append(names)
        runs[key] = [sets.index(names), bits]
        false_checks.update(n for n, b in zip(names, bits) if b == "0")
    head = {"workload": workload, "recorded_with": run.environment(), "check_sets": sets}
    lines = [json.dumps(head)[:-1] + ', "runs": {']
    lines.append(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in runs.items()))
    lines.append("}}")
    path = HERE / "reference" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    print(f"{workload}: {len(runs)} runs; false verdicts: {dict(false_checks)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", nargs="*", default=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    status = 0
    for workload in args.workload:
        status |= record(workload)
    return status


if __name__ == "__main__":
    sys.exit(main())
