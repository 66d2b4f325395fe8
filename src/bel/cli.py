"""Command-line entry point: run scenario configs, list what is available."""

import itertools
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import click

from .errors import BelError, ConfigParseError
from .scenarios import SCENARIOS, TOL, execute_run, expand_runs, load_config


@click.group()
def main():
    """Radial verification laboratory for weighted model manifolds."""


@main.command("run")
@click.argument("config_file", type=click.Path())
@click.option("--out", "out_dir", default=None, help="Output directory (overrides config).")
@click.option("--tol", type=float, default=None, help="Solver tolerance override.")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="Parallel worker processes for sweep runs (at most one per run).")
def run(config_file, out_dir, tol, jobs):
    """Execute every run described by CONFIG_FILE and write reports."""
    try:
        config = load_config(config_file)
    except ConfigParseError as exc:
        click.echo(f"config error [{exc.code}]: {exc}", err=True)
        sys.exit(2)
    out_root = out_dir or config.out_dir or os.environ.get("BEL_OUT_DIR") or "bel-out"
    try:
        specs = expand_runs(config, tol)
        if jobs > 1 and len(specs) > 1:
            with ProcessPoolExecutor(max_workers=min(jobs, len(specs))) as pool:
                reports = list(pool.map(execute_run, specs, itertools.repeat(out_root)))
        else:
            reports = [execute_run(spec, out_root) for spec in specs]
    except BelError as exc:
        click.echo(f"error [{exc.code}]: {exc}", err=True)
        sys.exit(2)
    failed = errored = 0
    for spec, report in zip(specs, reports):
        n_checks = len(report["checks"])
        n_ok = sum(c["verdict"] for c in report["checks"])
        error = report.get("error")
        status = "ERROR" if error else "pass" if report["passed"] else "FAIL"
        click.echo(f"{spec.slug}: {status} ({n_ok}/{n_checks} checks) -> {Path(out_root) / spec.slug}")
        if error:
            errored += 1
            click.echo(f"error [{error['code']}]: {error['message']}", err=True)
        elif not report["passed"]:
            failed += 1
            for c in report["checks"]:
                if not c["verdict"]:
                    click.echo(f"  failed: {c['name']} (measured={c['measured']})")
    sys.exit(2 if errored else 1 if failed else 0)


@main.command("list-scenarios")
def list_scenarios():
    """Show scenario names, their purpose and every config key's domain."""
    for name, record in SCENARIOS.items():
        click.echo(f"{name}: {record.description}")
        for key, param in record.keys.items():
            default = "required" if param.default is None else f"default {param.default}"
            read = "" if param.read_with is None else "; read with {} = {}".format(*param.read_with)
            click.echo(f"  {key}: {param}{read}; {default}")
    click.echo(f"every scenario: tol: {TOL}; default {TOL.default}")


if __name__ == "__main__":
    main()
