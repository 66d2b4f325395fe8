#!/usr/bin/env python3
"""The bel benchmark: seeded scenario runs in a closed loop, checked against
reference verdicts, with an optional layer-traced pass.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload warped-theorem --seed 1 --seconds 20 --trace 0

``--trace 0`` measures end to end: one client calls
``bel.scenarios.execute_run`` on the seeded runs one after another, in whole
passes over the list, until the runs have taken ``--seconds`` in all.  Between
runs, spread evenly over that time, fresh interpreters time importing ``bel``
and expanding the workload's configs (set-up time).  ``--trace 1`` runs one
pass over the same runs untraced and twice under the span recorder of
``tracing.py``, and reports per-layer busy times and work counters.

Every run is checked: it must not raise, its ``report.json`` must be strict
JSON, its check verdicts must equal the reference verdicts stored in
``reference/``, and a run repeated in the same process must write the same
artifacts (SHA-256 over ``report.json`` without ``timings`` plus
``profiles.csv``).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Details
(environment, digests, every layer metric, the spans) are written under
``.bench_build/perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One client, one thread: numpy's BLAS would otherwise start a worker per
# core, and on a shared 2-core box the run would measure the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

# Set-up samples per invocation.  They are spread over the timed pass, so
# that their median sees the same host drift as the run times.
SETUP_REPEATS = 9

# Runs the timed pass must leave beyond the run_s.tail percentile.
TAIL_SAMPLES = 10

_SETUP_PROBE = """\
import sys, time
sys.path[:0] = [{src!r}, {here!r}]
import workloads
texts = workloads.configs({workload!r}, {seed!r})
start = time.perf_counter()
from bel.scenarios import expand_runs, parse_config
specs = [spec for text in texts for spec in expand_runs(parse_config(text))]
print(time.perf_counter() - start, len(specs))
"""

# Per-layer metrics printed on the result line of a traced run.  Times listed
# here are nonzero on every workload; layer times that are structurally zero
# on some workload (construction, pfunction, the solver) appear as call
# counters here and with their times in the details file.
PER_LAYER = [
    ("radial_core.quad.builds", "count"),
    ("radial_core.quad.points", "count"),
    ("radial_core.quad.s", "s"),
    ("radial_core.eval.calls", "count"),
    ("radial_core.eval.points", "count"),
    ("radial_core.eval.s", "s"),
    ("radial_core.self_s", "s"),
    ("geometry.drift.calls", "count"),
    ("geometry.drift.points", "count"),
    ("geometry.drift.s", "s"),
    ("geometry.cumulative_area.calls", "count"),
    ("geometry.cumulative_area.s", "s"),
    ("geometry.weight_from_warping.calls", "count"),
    ("geometry.curvature.calls", "count"),
    ("geometry.comparison_report.calls", "count"),
    ("geometry.self_s", "s"),
    ("construction.build_example.calls", "count"),
    ("construction.verify_theorem.calls", "count"),
    ("lane_emden.shots", "count"),
    ("lane_emden.nfev", "count"),
    ("lane_emden.steps", "count"),
    ("lane_emden.pohozaev_slope_factor.calls", "count"),
    ("lane_emden.pohozaev_trace.calls", "count"),
    ("lane_emden.energy.calls", "count"),
    ("lane_emden.energy.s", "s"),
    ("lane_emden.self_s", "s"),
    ("pfunction.v_transform.calls", "count"),
    ("pfunction.k_functional.calls", "count"),
    ("pfunction.cheng_yau_ratio.calls", "count"),
    ("pfunction.integral_estimate_ratio.calls", "count"),
    ("scenarios.runner.self_s", "s"),
    ("scenarios.emit_profiles.s", "s"),
    ("scenarios.write_report.s", "s"),
    ("scenarios.self_s", "s"),
    ("scenarios.bytes_written", "B"),
    ("scenarios.profile_rows", "count"),
    ("trace.spans", "count"),
    ("trace.untraced_runs_per_s", "1/s"),
    ("trace.traced_runs_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
]

# Further layer times, written to the details file and the printed table.
DETAIL_TIMES = [
    "geometry.weight_from_warping.s",
    "geometry.curvature.s",
    "geometry.comparison_report.s",
    "construction.build_example.s",
    "construction.verify_theorem.self_s",
    "construction.self_s",
    "lane_emden.solve_radial.s",
    "lane_emden.solve_ivp.self_s",
    "lane_emden.pohozaev_slope_factor.s",
    "lane_emden.pohozaev_trace.s",
    "pfunction.v_transform.s",
    "pfunction.k_functional.s",
    "pfunction.divergence_identity_residual.s",
    "pfunction.integral_estimate_ratio.s",
    "pfunction.cheng_yau_ratio.s",
    "pfunction.superharmonic_floor_check.s",
    "pfunction.self_s",
]


class Item:
    """One run of the workload: its spec, canonical key and output folder."""

    def __init__(self, spec, key: str, out_dir: Path):
        self.spec = spec
        self.key = key
        self.out_dir = out_dir


# ------------------------------------------------------------------ checking


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} in report.json")


def load_reference(workload: str) -> dict:
    """key -> (check names, verdict bits) for every pool point."""
    data = json.loads((HERE / "reference" / f"{workload}.json").read_text())
    sets = [tuple(names) for names in data["check_sets"]]
    return {key: (sets[index], bits) for key, (index, bits) in data["runs"].items()}


def check_artifacts(item: Item, reference: dict):
    """(digest, problem) for the artifacts of one finished run.

    With ``reference=None`` only the artifacts themselves are checked.
    """
    run_dir = item.out_dir / item.spec.slug
    try:
        text = (run_dir / "report.json").read_text()
        report = json.loads(text, parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        return None, f"report.json unreadable or not strict JSON: {exc}"
    csv_path = run_dir / "profiles.csv"
    csv_bytes = csv_path.read_bytes() if csv_path.exists() else b""
    report.pop("timings", None)
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":")).encode()
    digest = hashlib.sha256(canonical + b"\0" + csv_bytes).hexdigest()
    names = tuple(c["name"] for c in report["checks"])
    bits = "".join("1" if c["verdict"] else "0" for c in report["checks"])
    if reference is None:
        return digest, None
    expected = reference.get(item.key)
    if expected is None:
        return digest, "no reference verdicts for this run"
    if expected != (names, bits):
        return digest, f"verdicts {names}={bits} differ from reference {expected}"
    return digest, None


def execute(item: Item, reference: dict, recorder=None):
    """Run one spec, then check its artifacts; returns (seconds, digest, problem).

    The clock covers ``execute_run`` only, artifacts included; the checks
    and clean-up after it are the benchmark's own work.
    """
    from bel.scenarios import execute_run

    span = None
    if recorder is not None:
        recorder.run_id = item.key
        span = recorder.begin("scenarios.execute_run")
    start = time.perf_counter()
    try:
        execute_run(item.spec, item.out_dir)
        problem = None
    except Exception as exc:  # a raising run is a counted failure
        problem = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if span is not None:
        recorder.end(span)
    digest = None
    if problem is None:
        digest, problem = check_artifacts(item, reference)
    shutil.rmtree(item.out_dir / item.spec.slug, ignore_errors=True)
    return elapsed, digest, problem


class Pass:
    """Per-run times, digests and problems of one pass over the runs.

    A run whose artifacts differ from an earlier run of the same spec, in
    this pass or in the ``baseline`` pass, is a failed run.
    """

    def __init__(self, baseline: "Pass" = None):
        self.times = []
        self.digests = {}
        self.order = []
        self.problems = []
        self.baseline = {} if baseline is None else baseline.digests

    def add(self, item: Item, elapsed: float, digest, problem) -> None:
        self.times.append(elapsed)
        earlier = self.digests.get(item.key, self.baseline.get(item.key))
        if problem is None and earlier is not None and earlier != digest:
            problem = "artifacts differ from an earlier run of the same spec"
        if item.key not in self.digests:
            self.digests[item.key] = digest
            self.order.append(item.key)
        if problem is not None:
            self.problems.append({"run": item.key, "problem": problem})

    def digest(self) -> str:
        """SHA-256 over every distinct run's artifact digest, in run order."""
        h = hashlib.sha256()
        for key in self.order:
            h.update(f"{key}={self.digests[key]}\n".encode())
        return h.hexdigest()

    @property
    def runs_per_s(self) -> float:
        """Completed runs per second of summed ``execute_run`` time."""
        return (len(self.times) - len(self.problems)) / sum(self.times)


def run_once(items, reference) -> Pass:
    result = Pass()
    for item in items:
        result.add(item, *execute(item, reference))
    return result


def run_timed(items, reference, seconds: float, min_runs: int, probe, result: Pass) -> Pass:
    """Closed loop over whole passes of the runs.

    Passes repeat until the runs have taken ``seconds`` in all, at least
    ``min_runs`` were made and at least two passes were made.  So every run
    is measured equally often, whatever the speed of the host, and every run
    is repeated for the determinism check.  ``probe`` is called
    ``SETUP_REPEATS`` times at run boundaries, spread evenly over the
    ``seconds``, outside the run clocks.
    """
    busy = 0.0
    probes = 0
    passes = 0
    while passes < 2 or busy < seconds or len(result.times) < min_runs:
        for item in items:
            while probes < SETUP_REPEATS and busy >= probes * seconds / SETUP_REPEATS:
                probe()
                probes += 1
            elapsed, digest, problem = execute(item, reference)
            busy += elapsed
            result.add(item, elapsed, digest, problem)
        passes += 1
    return result


# --------------------------------------------------------------- measurement


def measure_setup(workload: str, seed: int) -> float:
    """Seconds to import bel and expand the configs, in a fresh interpreter."""
    code = _SETUP_PROBE.format(src=str(SRC), here=str(HERE), workload=workload, seed=seed)
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.split()[0])


def min_timed_runs(pct: int) -> int:
    """Fewest runs that leave ``TAIL_SAMPLES`` beyond the ``pct`` percentile.

    ``percentile`` interpolates at position (n - 1) * pct / 100 of the sorted
    times, so the runs beyond it are n - 1 minus that position, rounded down.
    """
    n = TAIL_SAMPLES + 1
    while n - 1 - (n - 1) * pct // 100 < TAIL_SAMPLES:
        n += 1
    return n


def percentile(values, pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def machine_steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over all CPUs.

    On a shared host this is the main source of run-to-run spread, so it is
    recorded next to every timed pass (NaN where /proc/stat is unavailable).
    """
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def build_items(workload: str, seed: int, out_root: Path):
    import workloads
    from bel.scenarios import expand_runs, parse_config

    items = []
    for index, text in enumerate(workloads.configs(workload, seed)):
        out_dir = out_root / f"c{index:03d}"
        for spec in expand_runs(parse_config(text, source=f"{workload}#{index}")):
            items.append(Item(spec, workloads.run_key(spec.scenario, spec.params), out_dir))
    return items


def end_to_end(args, reference, out_root: Path, details: dict):
    import workloads

    items = build_items(args.workload, args.seed, out_root)
    warm = run_once(items[:1], reference)
    pct = workloads.TAIL_PERCENTILE[args.workload]
    setup = []
    steal = machine_steal_s()
    timed = run_timed(items, reference, args.seconds, min_timed_runs(pct),
                      lambda: setup.append(measure_setup(args.workload, args.seed)),
                      Pass(baseline=warm))
    steal = machine_steal_s() - steal
    tail = percentile(timed.times, pct)
    beyond = sum(t > tail for t in timed.times)
    attempted = len(warm.times) + len(timed.times)
    problems = warm.problems + timed.problems
    if beyond < TAIL_SAMPLES:
        # "*" marks a problem of the whole pass rather than of one run
        problems.append({"run": "*", "problem": f"only {beyond} runs beyond p{pct}"})
    metrics = {
        "runs_per_s": (timed.runs_per_s, "1/s"),
        "run_s.p50": (statistics.median(timed.times), "s"),
        "run_s.tail": (tail, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details.update({
        "setup_samples_s": setup,
        "distinct_runs": len(items),
        "timed_runs": len(timed.times),
        "timed_passes": len(timed.times) // len(items),
        "tail_percentile": pct,
        "runs_beyond_tail": beyond,
        "fail_ratio": sum(p["run"] != "*" for p in problems) / attempted,
        "machine_steal_s": steal,
        "digest": timed.digest(),
    })
    return attempted, problems, metrics


def traced(args, reference, out_root: Path, details: dict):
    import tracing

    items = build_items(args.workload, args.seed, out_root)
    warm = run_once(items[:1], reference)
    # Each run is made untraced and then under each of the two recorders
    # before the next run starts, so that all three passes see the same
    # machine load and the overhead ratio compares like with like.
    plain = Pass()
    passes = [Pass(baseline=plain), Pass(baseline=plain)]
    recorders = [tracing.Recorder(), tracing.Recorder()]
    for item in items:
        plain.add(item, *execute(item, reference))
        for recorder, result in zip(recorders, passes):
            with tracing.installed(recorder):
                result.add(item, *execute(item, reference, recorder))
    problems = warm.problems + plain.problems + passes[0].problems + passes[1].problems
    attempted = len(warm.times) + len(plain.times) + sum(len(p.times) for p in passes)

    counts = [dict(r.counts) for r in recorders]
    for c, r in zip(counts, recorders):
        c["trace.spans"] = len(r.spans)
    if counts[0] != counts[1]:
        changed = sorted(k for k in set(counts[0]) | set(counts[1])
                         if counts[0].get(k) != counts[1].get(k))
        problems.append({"run": "*", "problem": f"counters differ between traced passes: {changed}"})

    times = [r.times() for r in recorders]
    layer = {}
    for key in set(times[0]) | set(times[1]):
        layer[key] = (times[0].get(key, 0.0) + times[1].get(key, 0.0)) / 2.0
    layer.update(counts[0])
    traced_rps = (2 * len(items)) / (sum(passes[0].times) + sum(passes[1].times))
    layer["trace.untraced_runs_per_s"] = plain.runs_per_s
    layer["trace.traced_runs_per_s"] = traced_rps
    layer["trace.overhead_ratio"] = traced_rps / plain.runs_per_s

    WORK.mkdir(parents=True, exist_ok=True)
    recorders[-1].write_spans(WORK / f"spans-{args.workload}-seed{args.seed}.csv")
    metrics = {name: (layer.get(name, 0), unit) for name, unit in PER_LAYER}
    details.update({
        "traced_runs": len(items),
        "digest": plain.digest(),
        "layers": {k: layer[k] for k in sorted(layer)},
        "detail_times": {k: layer.get(k, 0.0) for k in DETAIL_TIMES},
    })
    return attempted, problems, metrics


# ---------------------------------------------------------------------- main


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bel" / "__init__.py").is_file():
        print(f"error: no bel sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bel

    if Path(bel.__file__).resolve().parent != SRC / "bel":
        print(f"error: imported bel from {bel.__file__}, not {SRC}", file=sys.stderr)
        return 2

    reference = load_reference(args.workload)
    WORK.mkdir(parents=True, exist_ok=True)
    out_root = Path(tempfile.mkdtemp(prefix="artifacts-", dir=WORK))
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "seconds": args.seconds, "environment": environment()}
    try:
        measure = traced if args.trace else end_to_end
        attempted, problems, metrics = measure(args, reference, out_root, details)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    details["problems"] = problems
    details["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result_path = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(details, indent=2) + "\n")

    env = details["environment"]
    print(f"# bel benchmark  workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"# python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"nproc {env['nproc']}  cpu {env['cpu']}")
    for key in ("distinct_runs", "timed_runs", "timed_passes", "traced_runs", "tail_percentile",
                "runs_beyond_tail", "fail_ratio", "machine_steal_s", "digest"):
        if key in details:
            print(f"# {key}: {details[key]}")
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:>16.6g} {unit}")
    for name, value in details.get("detail_times", {}).items():
        print(f"{name:42s} {value:>16.6g} s  (details only)")
    for problem in problems[:20]:
        print(f"# FAILED {problem['run']}: {problem['problem']}")
    print(f"# details: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": sum(p["run"] != "*" for p in problems),
        "metrics": details["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
