"""Experiment runners, report determinism, and the command-line interface."""

import hashlib
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from oracles import energy_quadruple

from zncert import spectral
from zncert.cli import main
from zncert.energy import energy_representation
from zncert.harness import (
    SOUNDNESS_SETTINGS,
    ExperimentConfig,
    RunReport,
    canonical_json,
    certificates_to_csv,
    run_example1,
    run_example2,
    run_extremal_cosets,
    run_recovery_sweep,
    run_soundness_sweep,
)
from zncert.bounds import certify_pair, classical_bound
from zncert.lattice import GroupParams, SupportSet, save_set
from zncert.spectral import ANALYST_PLUS, Signal, dft, random_signal, save_signal, support_of
from zncert.recovery import RecoveryProblem, save_problem


def test_example1_pair_selection_and_margins():
    report = run_example1()
    pairs = {(r["m"], r["N"]) for r in report.rows}
    assert (2, 4) not in pairs  # divisor pairs are filtered
    assert (3, 9) not in pairs
    assert (4, 5) not in pairs  # interval sums would wrap
    assert (2, 5) in pairs and (4, 11) in pairs
    assert len(pairs) == 10
    assert report.summary["fail_count"] == 0
    for row in report.rows:
        assert row["formula_matches"]
        assert row["improvement_margin"] > 0
        assert row["mu"] > 0


def test_example1_energy_values():
    report = run_example1()
    by_pair = {(r["m"], r["N"]): r for r in report.rows}
    assert by_pair[(2, 5)]["grid_energy"] == 36
    assert by_pair[(3, 7)]["grid_energy"] == 361


def test_example2_all_checks_pass():
    report = run_example2()
    assert report.summary["fail_count"] == 0
    checks = {r["check"]: r for r in report.rows}
    assert checks["spectrum-matches-golden"]["max_error"] <= 1e-12
    assert checks["l1-objective-is-three"]["objective"] == pytest.approx(3.0, abs=1e-6)
    assert checks["half-size-predicate-not-required"]["uniqueness_predicate"] is False


def test_soundness_sweep_small():
    cfg = ExperimentConfig("soundness-sweep", trials=80, seed=5)
    report = run_soundness_sweep(cfg)
    assert report.summary["fail_count"] == 0
    assert report.summary["min_slack"] >= -1e-9 * 16**2
    assert len(report.rows) == 80
    assert {"slack_classical", "slack_refined_point"} <= set(report.rows[0])


def test_recovery_sweep_small():
    cfg = ExperimentConfig("recovery-sweep", trials=60, seed=5)
    report = run_recovery_sweep(cfg)
    assert report.summary["fail_count"] == 0
    crosstab = report.summary["crosstab"]
    assert crosstab["certified_missed"] == 0
    assert crosstab["certified_recovered"] > 0
    contrast = report.summary["contrast"]
    assert contrast["low_energy_certified"] >= contrast["high_energy_certified"]
    assert contrast["low_energy_certified"] == 3
    assert contrast["high_energy_certified"] == 0


@pytest.mark.parametrize("runner", [run_soundness_sweep, run_recovery_sweep])
@pytest.mark.parametrize("trials", [-5, 0])
def test_sweeps_reject_nonpositive_trials(runner, trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        runner(ExperimentConfig("sweep", trials=trials))


def test_extremal_cosets_runner():
    report = run_extremal_cosets()
    assert report.summary["fail_count"] == 0
    assert all(abs(r["correction_point"]) <= 1e-12 for r in report.rows)


def test_report_reproducibility():
    cfg = ExperimentConfig("soundness-sweep", trials=30, seed=9)
    first = run_soundness_sweep(cfg).to_json(include_timing=False)
    second = run_soundness_sweep(cfg).to_json(include_timing=False)
    assert first == second
    other_seed = run_soundness_sweep(
        ExperimentConfig("soundness-sweep", trials=30, seed=10)
    ).to_json(include_timing=False)
    assert first != other_seed


#: sha256 and length of each default report's canonical JSON (timing
#: excluded), as the dense-sum transform and solver print them on x86-64
#: with numpy 2.4 and OpenBLAS. A change to any printed field, down to the
#: roundoff digits of recovery errors and residuals, shows here.
DEFAULT_REPORT_BYTES = {
    "recovery-sweep": ("209a3ed25d4707db09a00aee1366e18a70f4f579293e32aeea90fc4f4383bfa2", 92913),
    "soundness-sweep": ("b6bfe2aeb935c115d22f8c1eb7ddcf5eed6159ba53a5e4b68cbd8e8055822f74", 184159),
    "example1": ("305b85b9f43c57b0a8996e1940d5cdebebf4f0079baa9bfb1ae6ebc581472b67", 4007),
    "example2": ("4f3eda09bc8c60db38e4703146b15a782594bcf206a5d935bfd4e9063ec89b2e", 1096),
    "extremal-cosets": ("799236bbe855c0e557dc5849f801aea058d2da8137cb54566752711b974bfc46", 22062),
}


DEFAULT_RUNNERS = {
    "recovery-sweep": lambda: run_recovery_sweep(ExperimentConfig("recovery-sweep")),
    "soundness-sweep": lambda: run_soundness_sweep(ExperimentConfig("soundness-sweep")),
    "example1": run_example1,
    "example2": run_example2,
    "extremal-cosets": run_extremal_cosets,
}


@pytest.mark.parametrize("scenario", list(DEFAULT_REPORT_BYTES))
def test_default_reports_are_byte_identical(scenario):
    report = DEFAULT_RUNNERS[scenario]()
    assert report.scenario == scenario
    data = report.to_json(include_timing=False).encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == DEFAULT_REPORT_BYTES[scenario]


def _soundness_oracle(cfg: ExperimentConfig) -> tuple[list[dict], dict]:
    """The soundness sweep one trial at a time through the set pipeline."""
    rows, min_slack = [], {"classical": math.inf, "additive": math.inf, "refined": math.inf}
    for index in range(cfg.trials):
        n, d = SOUNDNESS_SETTINGS[index % len(SOUNDNESS_SETTINGS)]
        f = random_signal(GroupParams(n, d), np.random.default_rng([cfg.seed, index]))
        e = support_of(f)
        sigma = support_of(dft(f))
        certs = certify_pair(e, sigma)
        for cert in certs.values():
            min_slack[cert.kind] = min(min_slack[cert.kind], cert.slack)
        inputs = certs["refined_point"].inputs
        rows.append(
            {
                "trial": index,
                "N": n,
                "d": d,
                "E_size": len(e),
                "sigma_size": len(sigma),
                "E_energy": inputs["E_energy"],
                "sigma_energy": inputs["sigma_energy"],
                **{f"slack_{name}": cert.slack for name, cert in certs.items()},
                "ok": all(c.satisfied for c in certs.values()),
            }
        )
    failures = sum(1 for row in rows if not row["ok"])
    summary = {
        "pass_count": len(rows) - failures,
        "fail_count": failures,
        "min_slack": min(min_slack.values()),
        "min_slack_by_kind": min_slack,
    }
    return rows, summary


def _exact(value):
    """A row or summary with every float as its exact hex digits."""
    if isinstance(value, dict):
        return [(k, _exact(v)) for k, v in value.items()]
    return (type(value).__name__, value.hex() if isinstance(value, float) else value)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("trials", [1, 7, 37])
def test_soundness_sweep_matches_trial_by_trial_oracle(seed, trials):
    cfg = ExperimentConfig("soundness-sweep", trials=trials, seed=seed)
    report = run_soundness_sweep(cfg)
    rows, summary = _soundness_oracle(cfg)
    assert [_exact(row) for row in report.rows] == [_exact(row) for row in rows]
    assert _exact(report.summary) == _exact(summary)


def test_soundness_sweep_builds_no_sets(monkeypatch):
    def refuse(self):
        raise AssertionError("a SupportSet was built")

    monkeypatch.setattr(SupportSet, "__post_init__", refuse)
    with pytest.raises(AssertionError, match="a SupportSet was built"):
        support_of(random_signal(GroupParams(4, 1), np.random.default_rng(0)))
    report = run_soundness_sweep(ExperimentConfig("soundness-sweep", trials=40, seed=3))
    assert len(report.rows) == 40


def test_canonical_json_formats_floats():
    text = canonical_json({"value": 0.1234567890123456789, "nan": float("nan")})
    data = json.loads(text)
    assert data["value"] == 0.123456789012
    assert data["nan"] == "nan"


def test_certificate_csv_column_order():
    cert = classical_bound(2, 3, GroupParams(4, 1))
    text = certificates_to_csv([cert])
    header = text.splitlines()[0]
    assert header == "kind,lhs,rhs,correction,slack,satisfied"


def test_run_report_csv_rows():
    report = RunReport("demo", {}, [{"a": 1, "b": 2.5}], {"pass_count": 1, "fail_count": 0})
    assert report.to_csv().splitlines() == ["a,b", "1,2.5"]


def _write_fixture_files(tmp_path):
    p = GroupParams(4, 1)
    set_path = tmp_path / "set.json"
    save_set(SupportSet.from_coords(p, [(0,), (1,)]), set_path)
    signal_path = tmp_path / "signal.json"
    save_signal(Signal(p, np.array([1, 0, 0, 2], dtype=complex), ANALYST_PLUS), signal_path)
    problem_path = tmp_path / "problem.json"
    f = Signal(p, np.array([1, 0, 0, 2], dtype=complex), ANALYST_PLUS)
    missing = SupportSet.from_coords(p, [(1,), (2,)])
    save_problem(RecoveryProblem.from_signal(f, missing), problem_path)
    support_path = tmp_path / "support.json"
    save_set(SupportSet.from_coords(p, [(0,), (3,)]), support_path)
    return set_path, signal_path, problem_path, support_path


def test_cli_energy_and_bounds(tmp_path):
    set_path, signal_path, _, _ = _write_fixture_files(tmp_path)
    runner = CliRunner()

    result = runner.invoke(main, ["energy", "--set", str(set_path)])
    assert result.exit_code == 0
    assert json.loads(result.output)["energy"] == 6

    out_path = tmp_path / "energy.json"
    result = runner.invoke(
        main, ["energy", "--set", str(set_path), "--output", str(out_path)]
    )
    assert result.exit_code == 0
    assert json.loads(out_path.read_text())["energy"] == 6

    result = runner.invoke(main, ["bounds", "--signal", str(signal_path)])
    assert result.exit_code == 0
    certs = json.loads(result.output)["certificates"]
    assert [c["kind"] for c in certs] == [
        "classical",
        "additive",
        "additive",
        "refined",
        "refined",
    ]
    assert all(c["satisfied"] for c in certs)

    result = runner.invoke(
        main,
        ["bounds", "--E", str(set_path), "--Sigma", str(set_path), "--format", "csv"],
    )
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "kind,lhs,rhs,correction,slack,satisfied"

    result = runner.invoke(main, ["bounds"])
    assert result.exit_code != 0


def test_cli_rejects_set_file_outside_the_group(tmp_path):
    set_path = tmp_path / "bad.json"
    set_path.write_text(json.dumps({"N": 4, "d": 1, "members": [[5], [-1]]}))
    result = CliRunner().invoke(main, ["energy", "--set", str(set_path)])
    assert result.exit_code == 2
    assert not isinstance(result.exception, ValueError)  # no traceback
    assert "Invalid value for --set: member 0 [5] is not a point of Z_4^1" in result.output


@pytest.mark.parametrize(
    "data,message",
    [
        ({"N": 4, "d": 1, "members": 5}, "member entries must form a list, got 5"),
        ({"N": 4, "d": 1, "members": None}, "member entries must form a list, got None"),
        ({"N": 4, "d": 1, "members": {}}, "member entries must form a list, got {}"),
        ([1], "the file must hold a JSON object, got list"),
        ({"N": "4", "d": 1, "members": [[0]]}, "N and d must be integers, got '4' and 1"),
        ({"N": 4, "d": True, "members": [[0], [2]]}, "N and d must be integers, got 4 and True"),
        ({"N": 4, "d": 1, "members": [[2], [True]]}, "member 1 [True] is not a point of Z_4^1"),
    ],
    ids=[
        "members-scalar", "members-null", "members-object", "top-level-list", "string-modulus",
        "boolean-dimension", "boolean-coordinate",
    ],
)
def test_cli_rejects_malformed_set_files(tmp_path, data, message):
    set_path = tmp_path / "bad.json"
    set_path.write_text(json.dumps(data))
    result = CliRunner().invoke(main, ["energy", "--set", str(set_path)])
    assert result.exit_code == 2
    assert not isinstance(result.exception, (TypeError, ValueError))  # no traceback
    assert f"Invalid value for --set: {message}" in result.output


SIGNAL_4 = {"N": 4, "d": 1, "values": [[1, 0], [0, 0], [0, 0], [2, 0]]}


@pytest.mark.parametrize(
    "command,option,data,message",
    [
        (["bounds"], "--signal", {**SIGNAL_4, "values": [[1, 0], [2, 0]]}, "expected 4 values, got 2"),
        (["bounds"], "--signal", {"N": 4, "d": 1}, "missing key 'values'"),
        (["gowers"], "--signal", {**SIGNAL_4, "values": [[1, 0]] * 5}, "expected 4 values, got 5"),
        (["gowers"], "--signal", {"d": 1, "values": SIGNAL_4["values"]}, "missing key 'N'"),
        (["recover"], "--problem", {**SIGNAL_4, "missing": [[5]]}, "missing frequency 0 [5] is not a point of Z_4^1"),
        (["recover"], "--problem", {**SIGNAL_4, "values": [[1, 0]] * 3, "missing": [[1]]}, "expected 4 values, got 3"),
        (["recover"], "--problem", {"N": 4, "missing": [[1]]}, "missing key 'd'"),
        (["bounds"], "--signal", {**SIGNAL_4, "values": [1, 2, 3, 4]}, "value 0 1 is not an [re, im] pair of numbers"),
        (["gowers"], "--signal", {**SIGNAL_4, "values": [[1, 0], [0, 0], [0], [2, 0]]}, "value 2 [0] is not an [re, im] pair of numbers"),
        (["recover"], "--problem", {**SIGNAL_4, "values": [[1, 0], [0, 0], [0, 0], "2"], "missing": [[1]]}, "value 3 '2' is not an [re, im] pair of numbers"),
        (["bounds"], "--signal", {**SIGNAL_4, "values": 5}, "values must be a list of [re, im] pairs, got 5"),
        (["recover"], "--problem", {**SIGNAL_4, "values": 5, "missing": [[1]]}, "values must be a list of [re, im] pairs, got 5"),
        (["recover"], "--problem", {**SIGNAL_4, "missing": 5}, "missing frequency entries must form a list, got 5"),
        (["recover"], "--problem", {**SIGNAL_4, "missing": {}}, "missing frequency entries must form a list, got {}"),
        (["bounds"], "--signal", [1], "the file must hold a JSON object, got list"),
        (["recover"], "--problem", [1], "the file must hold a JSON object, got list"),
        (["gowers"], "--signal", {**SIGNAL_4, "N": None}, "N and d must be integers, got None and 1"),
        (["gowers"], "--signal", {**SIGNAL_4, "convention": 5}, "convention must be a JSON object, got 5"),
        (["recover"], "--problem", {**SIGNAL_4, "side": "time", "missing": [[1]]}, "spectrum must be a frequency-side signal, got a time-side one"),
        (["bounds"], "--signal", {**SIGNAL_4, "values": [[True, False], [0, 0], [0, 0], [2, 0]]}, "value 0 [True, False] is not an [re, im] pair of numbers"),
        (["gowers"], "--signal", {**SIGNAL_4, "N": True}, "N and d must be integers, got True and 1"),
        (["recover"], "--problem", {**SIGNAL_4, "missing": [[False]]}, "missing frequency 0 [False] is not a point of Z_4^1"),
    ],
    ids=[
        "bounds-count", "bounds-key", "gowers-count", "gowers-key", "recover-missing", "recover-count", "recover-key",
        "bounds-scalar", "gowers-short-pair", "recover-string", "bounds-values-scalar", "recover-values-scalar",
        "recover-missing-scalar", "recover-missing-object", "bounds-top-level-list", "recover-top-level-list",
        "gowers-null-modulus", "gowers-convention-scalar", "recover-time-side", "bounds-boolean-value",
        "gowers-boolean-modulus", "recover-boolean-missing",
    ],
)
def test_cli_rejects_malformed_signal_and_problem_files(tmp_path, command, option, data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    result = CliRunner().invoke(main, [*command, option, str(path)])
    assert result.exit_code == 2
    assert not isinstance(result.exception, (TypeError, ValueError, KeyError))  # no traceback
    assert f"Invalid value for {option}: {message}" in result.output


@pytest.mark.parametrize(
    "files,message",
    [
        (
            {"--E": {"N": 4, "d": 1, "members": [[0], [2]]}, "--Sigma": {"N": 5, "d": 1, "members": [[0]]}},
            "Invalid value for --E/--Sigma: E and Sigma must share one group, got Z_4^1 and Z_5^1",
        ),
        (
            {"--E": {"N": 4, "d": 1, "members": []}, "--Sigma": {"N": 4, "d": 1, "members": [[0], [2]]}},
            "Invalid value for --E/--Sigma: E and Sigma must be nonempty, got sizes 0 and 2",
        ),
        (
            {"--signal": {**SIGNAL_4, "values": [[0, 0]] * 4}},
            "Invalid value for --signal: E and Sigma must be nonempty, got sizes 0 and 0",
        ),
    ],
    ids=["mismatched-groups", "empty-set", "zero-signal"],
)
def test_cli_bounds_rejects_unusable_pairs(tmp_path, files, message):
    args = ["bounds"]
    for option, data in files.items():
        path = tmp_path / f"{option.strip('-')}.json"
        path.write_text(json.dumps(data))
        args += [option, str(path)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2
    assert not isinstance(result.exception, ValueError)  # no traceback
    assert message in result.output


@pytest.mark.parametrize(
    "route", [energy_representation, energy_quadruple], ids=["representation", "quadruple"]
)
def test_cli_energy_rejects_an_empty_set(tmp_path, route):
    # every energy route counts 0 quadruples in the empty set, so E / |A|^3 is 0/0
    assert route(SupportSet.from_coords(GroupParams(4, 1), [])) == 0
    set_path = tmp_path / "empty.json"
    set_path.write_text(json.dumps({"N": 4, "d": 1, "members": []}))
    result = CliRunner().invoke(main, ["energy", "--set", str(set_path)])
    assert result.exit_code == 2
    assert not isinstance(result.exception, ValueError)  # no traceback
    assert "Invalid value for --set: the set has no members" in result.output


def test_cli_energy_text_is_pinned(tmp_path):
    set_path = tmp_path / "set.json"
    save_set(SupportSet.from_coords(GroupParams(7, 1), [(0,), (1,), (2,)]), set_path)
    result = CliRunner().invoke(main, ["energy", "--set", str(set_path)])
    assert result.exit_code == 0
    assert result.output == (
        "{\n"
        '  "energy": 19,\n'
        '  "method": "representation",\n'
        '  "normalized_energy": 0.703703703704,\n'
        '  "normalized_energy_exact": "19/27",\n'
        '  "set_size": 3\n'
        "}\n"
    )
    # the energy has one route, so there is no route to select
    result = CliRunner().invoke(main, ["energy", "--set", str(set_path), "--method", "quadruple"])
    assert result.exit_code == 2
    assert "No such option '--method'" in result.output


#: sha256 and length of each fixture file as ``save_set``, ``save_signal``
#: and ``save_problem`` write it (keys in insertion order, not sorted).
FIXTURE_FILE_BYTES = {
    "set": ("632fa7bf2e28a56c95aa3770d349936f80f594c6fe4fb60fccd3344ce57be021", 84),
    "signal": ("8122a3bce09e0664871ba52f384774cc88f93f502422b95d437649448069d937", 286),
    "problem": ("51cfd6b01df5a0661e48a385988bdd72b38d0a883f567fcb922c6665df0277a7", 366),
    "support": ("c48c161d155257c3f00c4c8998f4fef19b0e322a77c066312eb9906d4ef412c5", 84),
}


def test_saved_files_are_pinned(tmp_path):
    digests = {}
    for path in _write_fixture_files(tmp_path):
        data = path.read_bytes()
        digests[path.stem] = (hashlib.sha256(data).hexdigest(), len(data))
    assert digests == FIXTURE_FILE_BYTES


#: sha256 and length of the stdout of the bounds, gowers, conjecture-scan
#: and recover commands (energy is pinned above, the reports by
#: DEFAULT_REPORT_BYTES), on the fixture files of ``_write_fixture_files``:
#: an analyst-plus signal on Z_4, the set {0, 1}, the support {0, 3}, and
#: the problem missing frequencies 1 and 2. Every certificate, norm, witness
#: and solution rendering shows here byte for byte; the roundoff digits are
#: those of x86-64 with numpy 2.4 and OpenBLAS.
CLI_OUTPUT_BYTES = {
    "bounds-signal-json": (
        ["bounds", "--signal", "{signal}"],
        "e60a7f1a80f9d8f4b3d3cd9d538df9e209361fe0fd0cbf29f060a7cfed571272", 1497,
    ),
    "bounds-signal-csv": (
        ["bounds", "--signal", "{signal}", "--format", "csv"],
        "23402be833b7c8946d3d28cd237b30c88dda8b8475ea191021fe77f6664268b2", 259,
    ),
    "bounds-set-pair": (
        ["bounds", "--E", "{set}", "--Sigma", "{support}"],
        "7241f0aa71d945a54b983e72f9a3b5acb031d730917d9a8bd91c22b87ca0f037", 1526,
    ),
    "gowers-k2": (
        ["gowers", "--signal", "{signal}", "--k", "2"],
        "7f0812feb9af4fc388f78621599252570a7fd26644fc98fe11ad6e920e7dac99", 99,
    ),
    "gowers-k3": (
        ["gowers", "--signal", "{signal}", "--k", "3"],
        "9b53b60dc3db71bba55b455209f29888f2c6538d9ad21f598110d11dda4ba343", 98,
    ),
    "scan-random": (
        ["conjecture-scan", "--N", "5", "--trials", "50"],
        "0142b7d43b2a0a9b5a21f5da8ab491754107e4dc779965f44254250c0c4fc106", 514,
    ),
    "scan-exhaustive": (
        ["conjecture-scan", "--N", "4", "--k", "3", "--sampler", "exhaustive-small"],
        "60a6ad03cdc01fbf32a44bd0c1558796a3d5a5e2cf71e18d8f58745fffb9097a", 497,
    ),
    "recover-l1": (
        ["recover", "--problem", "{problem}", "--method", "l1"],
        "b9608ae4a8d5f38d860f6e4eef17b2efcfd98d86807f6342baa1045029951c63", 660,
    ),
    "recover-lsq": (
        ["recover", "--problem", "{problem}", "--method", "lsq", "--support", "{support}"],
        "6ad27d04ddf030e4416be31346d27bc66c73d4662a7af9764f63fa0e36a9dffa", 571,
    ),
}


@pytest.mark.parametrize("name", CLI_OUTPUT_BYTES)
def test_cli_output_is_pinned(tmp_path, name):
    paths = dict(zip(("set", "signal", "problem", "support"), _write_fixture_files(tmp_path)))
    template, digest, length = CLI_OUTPUT_BYTES[name]
    result = CliRunner().invoke(main, [arg.format(**paths) for arg in template])
    assert result.exit_code == 0, result.output
    data = result.stdout.encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (digest, length)


def no_build(n, sign):  # a refused command, or an FFT-sized one, must not reach any build
    raise AssertionError(f"a {n} x {n} character matrix was built")


NORM_REFUSAL = "norm of order 3 on this group sums 4294967296 terms (limit 67108864)"


@pytest.mark.parametrize(
    "args,n,d,message",
    [
        (["gowers", "--k", "3"], 16, 2, NORM_REFUSAL),
        (["conjecture-scan", "--N", "16", "--d", "2", "--k", "3", "--trials", "1"], 16, 2, NORM_REFUSAL),
        (
            ["conjecture-scan", "--N", "65536", "--d", "2", "--k", "2"],
            2,
            1,
            "conjecture scan needs N^d <= 65536, got N^d = 4294967296",
        ),
    ],
    ids=["gowers", "conjecture-scan", "conjecture-scan-order-2"],
)
def test_cli_reports_a_capacity_guard_in_one_line(tmp_path, monkeypatch, args, n, d, message):
    monkeypatch.setattr(spectral, "_character_matrix", no_build)
    signal_path = tmp_path / "signal.json"
    p = GroupParams(n, d)
    save_signal(Signal(p, np.ones(p.size, dtype=complex), ANALYST_PLUS), signal_path)
    files = {"gowers": ["--signal", str(signal_path)]}
    result = CliRunner().invoke(main, [*args, *files.get(args[0], [])])
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)  # no traceback
    assert result.output.splitlines() == [f"Error: {message}"]


def test_cli_bounds_runs_past_the_old_dense_transform_guard(tmp_path, monkeypatch):
    # N^2 > 2^24 used to be refused; the FFT route transforms it with no matrix
    monkeypatch.setattr(spectral, "_character_matrix", no_build)
    signal_path = tmp_path / "signal.json"
    p = GroupParams(4097, 1)
    save_signal(Signal(p, np.ones(p.size, dtype=complex), ANALYST_PLUS), signal_path)
    result = CliRunner().invoke(main, ["bounds", "--signal", str(signal_path)])
    assert result.exit_code == 0, result.output
    certs = json.loads(result.output)["certificates"]
    assert len(certs) == 5
    assert certs[0]["kind"] == "classical" and certs[0]["inputs"] == {"E_size": 4097, "sigma_size": 1}
    assert all(c["satisfied"] for c in certs)


@pytest.mark.parametrize(
    "args,option",
    [
        (["gowers", "--k", "1"], "--k"),
        (["gowers", "--k", "4"], "--k"),
        (["conjecture-scan", "--N", "5", "--k", "1"], "--k"),
        (["conjecture-scan", "--N", "5", "--k", "4"], "--k"),
        (["conjecture-scan", "--N", "1"], "--N"),
        (["conjecture-scan", "--N", "5", "--d", "0"], "--d"),
        (["conjecture-scan", "--N", "5", "--trials", "0"], "--trials"),
        (["conjecture-scan", "--N", "5", "--trials", "-3"], "--trials"),
        (["recover", "--max-iter", "-2"], "--max-iter"),
        (["recover", "--max-iter", "0"], "--max-iter"),
        (["sweep", "soundness", "--trials", "-1"], "--trials"),
        (["sweep", "recovery", "--trials", "0"], "--trials"),
    ],
    ids=[
        "gowers-k1", "gowers-k4", "scan-k1", "scan-k4", "scan-N1", "scan-d0", "scan-trials0",
        "scan-trials-3", "recover-max-iter-2", "recover-max-iter0", "sweep-soundness-trials-1",
        "sweep-recovery-trials0",
    ],
)
def test_cli_rejects_out_of_range_options(tmp_path, args, option):
    _, signal_path, problem_path, _ = _write_fixture_files(tmp_path)
    files = {"gowers": ["--signal", str(signal_path)], "recover": ["--problem", str(problem_path)]}
    result = CliRunner().invoke(main, [*args, *files.get(args[0], [])])
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)  # no traceback
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and f"Invalid value for '{option}'" in errors[0]


def test_cli_recover(tmp_path):
    _, _, problem_path, support_path = _write_fixture_files(tmp_path)
    runner = CliRunner()

    result = runner.invoke(main, ["recover", "--problem", str(problem_path)])
    assert result.exit_code == 0
    solution = json.loads(result.output)
    assert solution["status"] == "converged"
    assert abs(solution["objective"] - 3.0) <= 1e-6

    result = runner.invoke(
        main,
        ["recover", "--problem", str(problem_path), "--method", "lsq", "--support", str(support_path)],
    )
    assert result.exit_code == 0
    assert json.loads(result.output)["status"] == "converged"

    result = runner.invoke(main, ["recover", "--problem", str(problem_path), "--method", "lsq"])
    assert result.exit_code != 0  # lsq needs a support candidate


def test_cli_recover_rejects_a_support_from_another_group(tmp_path):
    _, _, problem_path, _ = _write_fixture_files(tmp_path)
    support_path = tmp_path / "z5.json"
    save_set(SupportSet.from_coords(GroupParams(5, 1), [(0,), (3,)]), support_path)
    args = ["recover", "--problem", str(problem_path), "--method", "lsq", "--support", str(support_path)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)  # no traceback
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert errors == [
        "Error: Invalid value for --support: the set's group differs from the problem's"
    ]


def test_cli_gowers_and_scan(tmp_path):
    _, signal_path, _, _ = _write_fixture_files(tmp_path)
    runner = CliRunner()

    result = runner.invoke(main, ["gowers", "--signal", str(signal_path), "--k", "2"])
    assert result.exit_code == 0
    assert json.loads(result.output)["k"] == 2

    result = runner.invoke(
        main,
        ["conjecture-scan", "--N", "5", "--k", "2", "--trials", "40", "--seed", "1"],
    )
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["trials"] == 40
    assert "min_product" in report


def test_cli_reproduce_and_sweep(tmp_path):
    runner = CliRunner()

    out = tmp_path / "example2.json"
    result = runner.invoke(
        main, ["reproduce", "example2", "--output", str(out), "--check"]
    )
    assert result.exit_code == 0
    assert json.loads(out.read_text())["summary"]["fail_count"] == 0

    result = runner.invoke(
        main, ["sweep", "soundness", "--trials", "24", "--seed", "3", "--check"]
    )
    assert result.exit_code == 0

    result = runner.invoke(
        main, ["sweep", "recovery", "--trials", "16", "--seed", "3", "--format", "csv"]
    )
    assert result.exit_code == 0
    assert result.output.splitlines()[0].startswith("E_size,")


def test_check_mode_exit_contract():
    # --check exits nonzero exactly when the report carries failures
    from zncert.cli import _emit_report

    failing = RunReport("demo", {}, [], {"pass_count": 0, "fail_count": 2})
    with pytest.raises(SystemExit) as exc:
        _emit_report(failing, None, "json", check=True)
    assert exc.value.code == 1

    passing = RunReport("demo", {}, [], {"pass_count": 1, "fail_count": 0})
    _emit_report(passing, None, "json", check=True)  # no exit
