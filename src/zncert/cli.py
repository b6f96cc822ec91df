"""Command-line interface: certificates, recovery, norms, and experiments."""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable, TypeVar

import click

from ._version import __version__
from .errors import CapacityError
from .lattice import GroupParams, load_set
from .spectral import dft, load_signal, support_of
from .energy import energy_certificate
from .bounds import certify_pair
from .gowers import conjecture_scan, gowers_norm
from .recovery import DEFAULT_MAX_ITER, l1_recover, least_squares_recover, load_problem
from .harness import (
    ExperimentConfig,
    RunReport,
    canonical_json,
    certificates_to_csv,
    run_example1,
    run_example2,
    run_recovery_sweep,
    run_soundness_sweep,
)

T = TypeVar("T")


def _load(loader: Callable[[str], T], path: str, option: str) -> T:
    """Load an input file, reporting a malformed one as a usage error on its option."""
    try:
        return loader(path)
    except KeyError as exc:
        raise click.BadParameter(f"missing key {exc}", param_hint=option) from None
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint=option) from None


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        click.echo(text, nl=not text.endswith("\n"))


def _emit_report(report: RunReport, output: str | None, fmt: str, check: bool) -> None:
    text = report.to_csv() if fmt == "csv" else report.to_json()
    _emit(text, output)
    summary = report.summary
    click.echo(
        f"{report.scenario}: {summary['pass_count']} passed,"
        f" {summary['fail_count']} failed",
        err=True,
    )
    if check and report.failed:
        sys.exit(1)


class _Main(click.Group):
    def invoke(self, ctx: click.Context):
        """Run a command, reporting a refused desk-scale guard as a usage error."""
        try:
            return super().invoke(ctx)
        except CapacityError as exc:
            raise click.UsageError(str(exc)) from None


@click.group(cls=_Main)
@click.version_option(version=__version__)
def main() -> None:
    """Additive-energy uncertainty certificates and sparse recovery on Z_N^d."""


@main.command()
@click.option("--set", "set_path", required=True, type=click.Path(exists=True), help="Set file (JSON).")
@click.option("--output", type=click.Path(), default=None)
def energy(set_path: str, output: str | None) -> None:
    """Additive energy of a set, as an exact certificate."""
    a = _load(load_set, set_path, "--set")
    if len(a) == 0:
        raise click.BadParameter("the set has no members", param_hint="--set")
    _emit(canonical_json(energy_certificate(a).to_json_dict()), output)


@main.command()
@click.option("--signal", "signal_path", type=click.Path(exists=True), default=None)
@click.option("--E", "e_path", type=click.Path(exists=True), default=None)
@click.option("--Sigma", "sigma_path", type=click.Path(exists=True), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--output", type=click.Path(), default=None)
def bounds(
    signal_path: str | None,
    e_path: str | None,
    sigma_path: str | None,
    fmt: str,
    output: str | None,
) -> None:
    """Evaluate all uncertainty certificates for a signal or a set pair."""
    if signal_path:
        f = _load(load_signal, signal_path, "--signal")
        e = support_of(f)
        sigma = support_of(dft(f))
    elif e_path and sigma_path:
        e = _load(load_set, e_path, "--E")
        sigma = _load(load_set, sigma_path, "--Sigma")
    else:
        raise click.UsageError("provide --signal or both --E and --Sigma")
    try:
        certs = list(certify_pair(e, sigma).values())
    except ValueError as exc:
        option = "--signal" if signal_path else "--E/--Sigma"
        raise click.BadParameter(str(exc), param_hint=option) from None
    if fmt == "csv":
        _emit(certificates_to_csv(certs), output)
    else:
        _emit(canonical_json({"certificates": [c.to_json_dict() for c in certs]}), output)


@main.command()
@click.option("--problem", "problem_path", required=True, type=click.Path(exists=True))
@click.option("--method", type=click.Choice(["l1", "lsq"]), default="l1", show_default=True)
@click.option("--support", "support_path", type=click.Path(exists=True), default=None, help="Candidate support set (lsq).")
@click.option("--max-iter", type=click.IntRange(min=1), default=DEFAULT_MAX_ITER, show_default=True)
@click.option("--output", type=click.Path(), default=None)
def recover(
    problem_path: str,
    method: str,
    support_path: str | None,
    max_iter: int,
    output: str | None,
) -> None:
    """Reconstruct a signal from a partially observed spectrum."""
    problem = _load(load_problem, problem_path, "--problem")
    if method == "l1":
        solution = l1_recover(problem, max_iter=max_iter)
    else:
        if support_path is None:
            raise click.UsageError("--method lsq requires --support")
        support = _load(load_set, support_path, "--support")
        if support.params != problem.params:
            raise click.BadParameter("the set's group differs from the problem's", param_hint="--support")
        solution = least_squares_recover(problem, support)
    _emit(canonical_json(solution.to_json_dict()), output)


@main.command()
@click.option("--signal", "signal_path", required=True, type=click.Path(exists=True))
@click.option("--k", type=click.IntRange(2, 3), default=2, show_default=True)
@click.option("--output", type=click.Path(), default=None)
def gowers(signal_path: str, k: int, output: str | None) -> None:
    """Uniformity norm of order k: k = 2 by one transform, k = 3 by the full cube sum."""
    report = gowers_norm(_load(load_signal, signal_path, "--signal"), k)
    _emit(canonical_json(report.to_json_dict()), output)


@main.command("conjecture-scan")
@click.option("--N", "modulus", type=click.IntRange(min=2), required=True)
@click.option("--d", "dimension", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--k", type=click.IntRange(2, 3), default=2, show_default=True)
@click.option(
    "--sampler",
    type=click.Choice(["random", "exhaustive-small"]),
    default="random",
    show_default=True,
)
@click.option("--trials", type=click.IntRange(min=1), default=500, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--output", type=click.Path(), default=None)
def conjecture_scan_cmd(
    modulus: int, dimension: int, k: int, sampler: str, trials: int, seed: int, output: str | None
) -> None:
    """Scan for violations of the support-times-uniformity-norm inequality."""
    params = GroupParams(modulus, dimension)
    report = conjecture_scan(params, k, sampler=sampler, trials=trials, seed=seed)
    _emit(canonical_json(report.to_json_dict()), output)
    if report.violations:
        click.echo(
            f"WARNING: {len(report.violations)} products fell below 1;"
            " witnesses are in the report",
            err=True,
        )


@main.command()
@click.argument("scenario", type=click.Choice(["example1", "example2"]))
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--output", type=click.Path(), default=None)
@click.option("--check", is_flag=True, help="Exit nonzero if any check fails.")
def reproduce(scenario: str, fmt: str, output: str | None, check: bool) -> None:
    """Re-run a pinned walkthrough and report its golden checks."""
    report = run_example1() if scenario == "example1" else run_example2()
    _emit_report(report, output, fmt, check)


@main.command()
@click.argument("kind", type=click.Choice(["soundness", "recovery"]))
@click.option("--trials", type=click.IntRange(min=1), default=None, help="Trial count (default per sweep).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--output", type=click.Path(), default=None)
@click.option("--check", is_flag=True, help="Exit nonzero on any violation.")
def sweep(
    kind: str, trials: int | None, seed: int, fmt: str, output: str | None, check: bool
) -> None:
    """Randomized certificate and recovery sweeps with fixed seeds."""
    cfg = ExperimentConfig(f"{kind}-sweep", trials=trials, seed=seed)
    runner = run_soundness_sweep if kind == "soundness" else run_recovery_sweep
    _emit_report(runner(cfg), output, fmt, check)


if __name__ == "__main__":
    main()
