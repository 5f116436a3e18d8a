"""Experiment harness and CLI tests: schemas, determinism, exit codes."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foguel import (
    EXPERIMENTS,
    ExperimentConfig,
    SeededGenerator,
    SingularMatrixError,
    ValidationError,
    emit_report,
    run_experiment,
)
from foguel.cli import main
from foguel.linalg import adjoint

ALL_EXPERIMENTS = (
    "verify-norm",
    "verify-spectrum",
    "verify-resolvent",
    "verify-inverses",
    "verify-dilation",
    "verify-power",
    "verify-polynomial",
    "verify-schur",
    "shift-convergence",
)


def small_config(experiment, **overrides):
    kwargs = dict(experiment=experiment, dim=4, trials=3, seed=11)
    if experiment == "shift-convergence":
        kwargs["shift_dims"] = (8, 16, 32)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


@pytest.mark.parametrize("experiment", ALL_EXPERIMENTS)
def test_every_experiment_passes_smoke(experiment):
    report = run_experiment(small_config(experiment))
    assert report.passed
    assert report.pass_count == 3
    assert report.wall_time > 0


@pytest.mark.parametrize("experiment", ALL_EXPERIMENTS)
def test_reports_are_byte_deterministic(experiment):
    config = small_config(experiment)
    first = emit_report(run_experiment(config))
    second = emit_report(run_experiment(config))
    assert first == second
    csv_first = emit_report(run_experiment(config), "csv")
    csv_second = emit_report(run_experiment(config), "csv")
    assert csv_first == csv_second


def test_json_lines_schema():
    report = run_experiment(small_config("verify-norm"))
    lines = emit_report(report).decode().strip().split("\n")
    assert len(lines) == 4  # trials + aggregate
    for line in lines[:-1]:
        record = json.loads(line)
        assert list(record) == [
            "experiment",
            "seed",
            "trial",
            "deviation",
            "slack",
            "pass",
            "reason",
        ]
        assert record["experiment"] == "verify-norm"
        assert record["seed"] == 11
    aggregate = json.loads(lines[-1])
    assert aggregate["trial"] == "aggregate"
    assert aggregate["pass_count"] == 3
    assert aggregate["config"]["dim"] == 4


def test_csv_row_count_and_header():
    report = run_experiment(small_config("verify-spectrum", trials=5))
    rows = emit_report(report, "csv").decode().strip().split("\n")
    assert len(rows) == 5 + 1
    assert rows[0] == "experiment,seed,trial,deviation,slack,pass,reason"


def test_seed_changes_records():
    a = emit_report(run_experiment(small_config("verify-schur", seed=1)))
    b = emit_report(run_experiment(small_config("verify-schur", seed=2)))
    assert a != b


def test_spectrum_experiment_at_documented_scale():
    config = ExperimentConfig(experiment="verify-spectrum", dim=16, trials=100, seed=42)
    report = run_experiment(config)
    assert report.passed
    assert report.max_deviation <= 1e-8


def test_schur_experiment_at_documented_scale():
    config = ExperimentConfig(experiment="verify-schur", dim=8, trials=50, seed=1)
    report = run_experiment(config)
    assert report.passed
    assert report.max_deviation <= 1e-6


def test_golden_fixture_reproduces_golden_ratio():
    config = ExperimentConfig(
        experiment="verify-norm", dim=1, trials=1, seed=7, fixture="golden"
    )
    report = run_experiment(config)
    assert report.passed
    assert report.max_deviation <= 1e-10


def test_config_validation_errors():
    with pytest.raises(ValidationError):
        run_experiment(ExperimentConfig(experiment="no-such-thing"))
    with pytest.raises(ValidationError):
        run_experiment(ExperimentConfig(experiment="verify-norm", trials=0))
    with pytest.raises(ValidationError):
        run_experiment(ExperimentConfig(experiment="verify-norm", dim=0))
    with pytest.raises(ValidationError):
        run_experiment(ExperimentConfig(experiment="verify-norm", dim=4096))
    with pytest.raises(ValidationError):
        run_experiment(ExperimentConfig(experiment="verify-norm", seed=-1))
    with pytest.raises(ValidationError):
        run_experiment(ExperimentConfig(experiment="verify-spectrum", fixture="golden"))


# --- CLI ----------------------------------------------------------------------


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_pass_exit_zero(capsys):
    code, out, err = run_cli(
        ["verify-norm", "--dim", "4", "--trials", "2", "--seed", "3"], capsys
    )
    assert code == 0
    assert out.count("\n") == 3
    assert "2/2 trials passed" in err


def test_cli_property_failure_exit_one(capsys):
    # an absurdly tight tolerance turns finite-precision residuals into failures
    code, out, err = run_cli(
        ["verify-schur", "--dim", "4", "--trials", "1", "--seed", "3", "--tol", "1e-30"],
        capsys,
    )
    assert code == 1


def test_cli_usage_error_exit_two(capsys):
    code, out, err = run_cli(["verify-norm", "--trials", "0"], capsys)
    assert code == 2
    assert "usage error" in err


def test_cli_unknown_experiment_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-experiment"])
    assert excinfo.value.code == 2


def test_cli_csv_output(capsys):
    code, out, err = run_cli(
        ["verify-norm", "--dim", "2", "--trials", "4", "--format", "csv"], capsys
    )
    assert code == 0
    rows = out.strip().split("\n")
    assert len(rows) == 5
    assert rows[0].startswith("experiment,seed,trial")


def test_cli_out_file(tmp_path, capsys):
    target = tmp_path / "report.jsonl"
    code, out, err = run_cli(
        ["verify-norm", "--dim", "2", "--trials", "2", "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    lines = target.read_text().strip().split("\n")
    assert len(lines) == 3


def test_cli_out_file_failure_names_path(capsys):
    code, out, err = run_cli(
        ["verify-norm", "--trials", "1", "--out", "/no/such/directory/report.jsonl"],
        capsys,
    )
    assert code == 2
    assert "/no/such/directory/report.jsonl" in err


def test_cli_byte_identical_reruns(capsys):
    args = ["verify-power", "--dim", "3", "--trials", "2", "--seed", "5"]
    code_a, out_a, _ = run_cli(args, capsys)
    code_b, out_b, _ = run_cli(args, capsys)
    assert (code_a, out_a) == (code_b, out_b)


def test_cli_config_file(tmp_path, capsys):
    config = {"dim": 3, "trials": 2, "seed": 21, "format": "csv"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))

    code, out_from_file, _ = run_cli(["verify-norm", "--config", str(path)], capsys)
    assert code == 0
    code, out_from_flags, _ = run_cli(
        ["verify-norm", "--dim", "3", "--trials", "2", "--seed", "21", "--format", "csv"],
        capsys,
    )
    assert out_from_file == out_from_flags

    # explicit flags beat the file
    code, out_override, _ = run_cli(
        ["verify-norm", "--config", str(path), "--seed", "22"], capsys
    )
    first_row = out_override.split("\n")[1]  # row 0 is the csv header
    assert first_row.startswith("verify-norm,22,")


def test_cli_config_file_rejects_unknown_keys(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"jitter": 3}))
    code, out, err = run_cli(["verify-norm", "--config", str(path)], capsys)
    assert code == 2
    assert "jitter" in err


@pytest.mark.parametrize(
    "experiment, config, key",
    [
        ("verify-norm", {"dim": "8"}, "dim"),
        ("verify-norm", {"seed": 1.7}, "seed"),
        ("verify-norm", {"trials": True}, "trials"),
        ("verify-norm", {"tol": "1e-8"}, "tol"),
        ("shift-convergence", {"shift_dims": [8, "16"]}, "shift_dims"),
    ],
    ids=["dim-string", "seed-float", "trials-bool", "tol-string", "shift-dims-mixed-list"],
)
def test_cli_config_values_need_the_flag_json_type(tmp_path, capsys, experiment, config, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    # --trials on the command line wins over the file, yet a mistyped file value is refused
    code, out, err = run_cli([experiment, "--trials", "1", "--config", str(path)], capsys)
    assert code == 2
    assert "usage error" in err and repr(key) in err


#: A value for every per-experiment field: (CLI text, config-file JSON value).
FLAG_VALUES = {
    "fixture": ("golden", "golden"),
    "power_max": ("3", 3),
    "poly_degree": ("3", 3),
    "neumann_order": ("5", 5),
    "shift_dims": ("8,16", [8, 16]),
}


def test_flag_values_cover_the_registry():
    assert set(FLAG_VALUES) == {f for spec in EXPERIMENTS.values() for f in spec.flags}


@pytest.mark.parametrize("experiment", ALL_EXPERIMENTS)
def test_registry_flags_work_as_options_and_config_keys(tmp_path, capsys, experiment):
    base = [experiment, "--dim", "2", "--trials", "1", "--seed", "4"]
    path = tmp_path / "config.json"
    for field in EXPERIMENTS[experiment].flags:
        text, value = FLAG_VALUES[field]
        code, from_flag, _ = run_cli(base + ["--" + field.replace("_", "-"), text], capsys)
        assert code == 0
        path.write_text(json.dumps({field: value}))
        code, from_file, _ = run_cli(base + ["--config", str(path)], capsys)
        assert code == 0
        assert from_file == from_flag
        echoed = json.loads(from_file.strip().split("\n")[-1])["config"][field]
        assert echoed == value


@pytest.mark.parametrize("experiment", ALL_EXPERIMENTS)
def test_config_rejects_keys_owned_by_other_experiments(tmp_path, capsys, experiment):
    path = tmp_path / "config.json"
    for field, (_, value) in FLAG_VALUES.items():
        if field in EXPERIMENTS[experiment].flags:
            continue
        path.write_text(json.dumps({field: value}))
        code, out, err = run_cli([experiment, "--trials", "1", "--config", str(path)], capsys)
        assert code == 2
        assert field in err


def test_cli_shift_dims_flag(capsys):
    code, out, _ = run_cli(
        ["shift-convergence", "--trials", "1", "--shift-dims", "8,16"], capsys
    )
    assert code == 0
    aggregate = json.loads(out.strip().split("\n")[-1])
    assert aggregate["config"]["shift_dims"] == [8, 16]


@pytest.mark.parametrize(
    "error, reason",
    [
        (SingularMatrixError("synthetic singular draw", rcond=0.0), "singular-matrix"),
        (OverflowError(34, "Numerical result out of range"), "overflow"),
        (np.linalg.LinAlgError("SVD did not converge"), "linalg-error"),
    ],
    ids=["singular-matrix", "overflow", "linalg-error"],
)
def test_expected_numeric_error_becomes_failed_trial(monkeypatch, error, reason):
    import dataclasses

    from foguel.experiments import EXPERIMENTS

    def explode(cfg, gen, base, scale):
        raise error

    spec = dataclasses.replace(EXPERIMENTS["verify-norm"], runner=explode)
    monkeypatch.setitem(EXPERIMENTS, "verify-norm", spec)
    report = run_experiment(small_config("verify-norm", trials=2))
    assert not report.passed
    assert all(r.reason == reason for r in report.records)
    assert all(r.deviation is None for r in report.records)
    # the report still serializes (nulls in json, empty cells in csv)
    assert b'"deviation": null' in emit_report(report)
    assert f"verify-norm,11,0,,,false,{reason}".encode() in emit_report(report, "csv")


def test_internal_consistency_error_exits_three(monkeypatch, capsys):
    import dataclasses

    from foguel.errors import InternalConsistencyError
    from foguel.experiments import EXPERIMENTS

    def explode(cfg, gen, base, scale):
        raise InternalConsistencyError("synthetic block-algebra bug")

    spec = dataclasses.replace(EXPERIMENTS["verify-norm"], runner=explode)
    monkeypatch.setitem(EXPERIMENTS, "verify-norm", spec)
    code, out, err = run_cli(["verify-norm", "--trials", "1"], capsys)
    assert code == 3
    assert "internal consistency" in err


def test_crash_exits_four_with_a_traceback(monkeypatch, capsys):
    import dataclasses

    from foguel.experiments import EXPERIMENTS

    def explode(cfg, gen, base, scale):
        raise TypeError("synthetic crash")

    spec = dataclasses.replace(EXPERIMENTS["verify-norm"], runner=explode)
    monkeypatch.setitem(EXPERIMENTS, "verify-norm", spec)
    code, out, err = run_cli(["verify-norm", "--trials", "1"], capsys)
    assert code == 4
    assert "Traceback" in err and "TypeError: synthetic crash" in err


@pytest.mark.parametrize(
    "cache, mutate",
    [
        ("coupling", lambda value: np.zeros_like(value)),
        ("gram_eigvals", lambda value: value + 1e-3 * (1.0 + value[-1])),
    ],
    ids=["zero-coupling", "shifted-gram-spectrum"],
)
def test_schur_experiment_catches_a_corrupted_operator_cache(monkeypatch, cache, mutate):
    # each route of the Schur positivity test reads its own cache; corrupting
    # either must fail the report or raise (exit 3), never pass silently
    from foguel.errors import InternalConsistencyError
    from foguel.models import FoguelOperator

    config = ExperimentConfig("verify-schur", dim=6, trials=3, seed=11)
    assert run_experiment(config).passed
    original = FoguelOperator.__dict__[cache].func
    monkeypatch.setattr(FoguelOperator, cache, property(lambda op: mutate(original(op))))
    try:
        report = run_experiment(config)
    except InternalConsistencyError:
        return
    assert not report.passed


@pytest.mark.parametrize("experiment, per_trial", [("verify-power", 2), ("verify-inverses", 1)])
def test_reported_checks_run_few_eigensolves_of_order_2n(monkeypatch, experiment, per_trial):
    # only a check that can be a trial's worst ratio needs an exact norm:
    # verify-power keeps ||R|| and its first nonzero residual, verify-inverses
    # its first residual; every other check is settled by a certificate
    order_2n = []

    def counting(solver):
        def wrapper(m, *args, **kwargs):
            if np.shape(m)[-1] == 12:
                order_2n.append(solver.__name__)
            return solver(m, *args, **kwargs)

        return wrapper

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    for seed in (0, 1, 2):
        order_2n.clear()
        config = ExperimentConfig(experiment, dim=6, power_max=10, trials=4, seed=seed)
        assert run_experiment(config).passed
        assert len(order_2n) <= per_trial * 4


@pytest.mark.parametrize("power_max", [6, 32])
def test_certified_skips_leave_report_bytes_unchanged(monkeypatch, power_max):
    from foguel import experiments
    from foguel.linalg import operator_norm

    configs = [
        ExperimentConfig(experiment, dim=dim, trials=3, seed=seed, power_max=power_max)
        for experiment in ("verify-power", "verify-inverses")
        for dim in (1, 2, 3, 8, 24)
        for seed in (0, 7, 2024)
    ]
    reports = [run_experiment(c) for c in configs]
    certified = [emit_report(r, fmt) for r in reports for fmt in ("json-lines", "csv")]

    def add_norm(self, name, x, divisor, threshold):
        self.add(name, operator_norm(x) / divisor, threshold)

    # both certificates decline, so every check runs its exact norm
    with monkeypatch.context() as patch:
        patch.setattr(experiments._Checks, "add_norm", add_norm)
        patch.setattr(experiments, "norm_certainly_below", lambda m, bound: False)
        reports = [run_experiment(c) for c in configs]
        exact = [emit_report(r, fmt) for r in reports for fmt in ("json-lines", "csv")]
    assert certified == exact


def test_power_overflow_is_still_one_failed_trial(capsys):
    code, out, _ = run_cli(
        ["verify-power", "--dim", "2", "--trials", "1", "--power-max", "2000"], capsys
    )
    record, aggregate = (json.loads(line) for line in out.strip().split("\n"))
    assert code == 1
    assert record["reason"] == "overflow" and record["deviation"] is None
    assert aggregate["pass_count"] == 0


@given(st.data())
@settings(deadline=None, max_examples=100)
def test_checks_ratio_with_skips_equals_the_all_exact_ratio(data):
    from foguel.experiments import _Checks
    from foguel.linalg import operator_norm

    gen = SeededGenerator(data.draw(st.integers(0, 2**32 - 1)))
    items = []
    for _ in range(data.draw(st.integers(1, 8))):
        kind = data.draw(st.sampled_from(["general", "rank-one", "zero", "repeat", "scalar"]))
        dim = data.draw(st.integers(1, 6))
        if kind == "repeat" and items and items[-1][0] == "norm":
            items.append(items[-1])  # an exact tie with an earlier check
            continue
        if kind == "scalar":
            measured, threshold = data.draw(st.floats(0.0, 10.0)), data.draw(st.floats(0.1, 10.0))
            items.append(("scalar", measured, threshold))
            continue
        if kind == "rank-one":
            x = gen.complex_gaussian(dim, 1) @ adjoint(gen.complex_gaussian(dim, 1))
        elif kind == "zero":
            x = np.zeros((dim, dim), dtype=np.complex128)
        else:
            x = gen.complex_gaussian(dim)
        x = x * 10.0 ** data.draw(st.floats(-12.0, 4.0))
        divisor = data.draw(st.floats(1.0, 1e3))
        items.append(("norm", x, divisor, data.draw(st.floats(1e-3, 10.0))))
    order = data.draw(st.permutations(range(len(items))))
    scale = data.draw(st.sampled_from([1.0, 0.3, 7.0]))

    skipping, exact = _Checks(scale), _Checks(scale)
    for i in order:
        item = items[i]
        if item[0] == "scalar":
            skipping.add("s", item[1], item[2])
            exact.add("s", item[1], item[2])
        else:
            _, x, divisor, threshold = item
            skipping.add_norm("x", x, divisor, threshold)
            exact.add("x", operator_norm(x) / divisor, threshold)
    assert skipping.ratio() == exact.ratio()


def test_power_bound_mutant_fails_with_the_certificates_active():
    # the power estimate with the factor n dropped, ||R^n|| <= Phi(||T||),
    # is false for n >= 2; the report must fail, not certify it away
    import dataclasses
    import inspect
    import textwrap

    from foguel import experiments

    source = textwrap.dedent(inspect.getsource(experiments._run_verify_power))
    assert "foguel_norm_closed(n * t_norm)" in source
    namespace = dict(vars(experiments))
    mutant = source.replace("foguel_norm_closed(n * t_norm)", "foguel_norm_closed(t_norm)")
    exec(mutant, namespace)
    config = ExperimentConfig("verify-power", dim=6, power_max=4, trials=3, seed=5)
    assert run_experiment(config).passed
    spec = dataclasses.replace(
        EXPERIMENTS["verify-power"], runner=namespace["_run_verify_power"]
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(EXPERIMENTS, "verify-power", spec)
        report = run_experiment(config)
    # failed by the power-bound check itself, not by a numeric error
    assert report.pass_count == 0
    assert all(r.reason == "" for r in report.records)


def test_polynomial_trial_evaluates_p_of_r_once(monkeypatch):
    # the runner's one Horner evaluation of R is the oracle of the block
    # self-check, of the poly-formula check and of the norm bound
    from foguel.dilation import Polynomial

    original, shapes = Polynomial.at_matrix, []

    def counting(self, m):
        shapes.append(np.shape(m))
        return original(self, m)

    monkeypatch.setattr(Polynomial, "at_matrix", counting)
    config = ExperimentConfig("verify-polynomial", dim=6, trials=3, seed=11)
    assert run_experiment(config).passed
    assert shapes == [(12, 12)] * 3


def test_power_trial_runs_no_matrix_power_of_order_2n(monkeypatch):
    # R^n is the runner's running product, passed to foguel_power's self-check
    original, orders = np.linalg.matrix_power, []

    def counting(m, n):
        orders.append(np.shape(m)[-1])
        return original(m, n)

    monkeypatch.setattr(np.linalg, "matrix_power", counting)
    config = ExperimentConfig("verify-power", dim=6, power_max=10, trials=2, seed=11)
    assert run_experiment(config).passed
    assert 6 in orders  # the diagonal blocks of the block formula
    assert 12 not in orders


@pytest.mark.parametrize("ratios", [(0.0, float("nan")), (float("nan"), 0.0)])
def test_a_nan_ratio_is_binding_in_any_position(monkeypatch, ratios):
    from foguel import experiments

    checks = experiments._Checks()
    for name, ratio in zip("ab", ratios):
        checks.add(name, ratio, 1.0)
    assert np.isnan(checks.ratio())
    # after a NaN, add_norm runs its exact norm and the ratio stays NaN
    exact = []
    monkeypatch.setattr(experiments, "operator_norm", lambda x: exact.append(x) or 1e-300)
    checks.add_norm("c", np.eye(2), 1.0, 1.0)
    assert len(exact) == 1 and np.isnan(checks.ratio())


def test_a_nan_after_a_finite_check_fails_the_trial(monkeypatch):
    import dataclasses

    from foguel.experiments import _Checks, _outcome

    def runner(cfg, gen, base, scale):
        checks = _Checks(scale)
        checks.add("finite", 0.0, base / scale)
        checks.add("nan", float("nan"), base / scale)
        return _outcome(checks, base)

    spec = dataclasses.replace(EXPERIMENTS["verify-norm"], runner=runner)
    monkeypatch.setitem(EXPERIMENTS, "verify-norm", spec)
    report = run_experiment(small_config("verify-norm", trials=2))
    assert report.pass_count == 0 and not report.passed
