"""Command-line entry point: one subcommand per verification experiment.

Usage::

    foguel verify-norm --dim 8 --trials 100 --seed 42 --format json-lines
    foguel shift-convergence --shift-dims 16,64,256 --out report.jsonl

Flags may also come from a JSON config file (``--config``); explicit flags
take precedence over the file, which takes precedence over defaults.  Exit
status: 0 all trials passed, 1 a property failed, 2 usage error, 3 internal
consistency error, 4 crash (any other exception; its traceback goes to
stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from .errors import FoguelError, InternalConsistencyError, ValidationError
from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    run_experiment,
    write_report,
)

#: Every flag: config field -> (option string, argparse keywords).  A field
#: named in some experiment's ``ExperimentSpec.flags`` belongs to those
#: experiments only; every other field is accepted by all of them.  Options
#: default to None so that an absent flag falls through to the config file
#: and then to the ``ExperimentConfig`` default.
_FLAGS = {
    "dim": ("--dim", dict(type=int, help="operator dimension n")),
    "trials": ("--trials", dict(type=int, help="number of seeded trials")),
    "seed": ("--seed", dict(type=int, help="64-bit experiment seed")),
    "tol": (
        "--tol",
        dict(
            type=float,
            help="base tolerance (default {base_tol:g}); "
            "secondary thresholds scale proportionally",
        ),
    ),
    "output_format": (
        "--format",
        dict(choices=("json-lines", "csv"), help="report format (default json-lines)"),
    ),
    "out": ("--out", dict(help="write the report to this path")),
    "fixture": (
        "--fixture",
        dict(choices=("golden",), help="replace random draws with the scalar golden-ratio pair"),
    ),
    "power_max": ("--power-max", dict(type=int)),
    "poly_degree": ("--poly-degree", dict(type=int)),
    "neumann_order": ("--neumann-order", dict(type=int)),
    "shift_dims": (
        "--shift-dims",
        dict(help="comma-separated truncation dimensions, e.g. 16,64,256"),
    ),
}

_OWNED = {field for spec in EXPERIMENTS.values() for field in spec.flags}


def _fields(spec) -> list:
    """Config fields ``spec``'s subcommand accepts, in option order."""
    return [f for f in _FLAGS if f not in _OWNED or f in spec.flags]


def _file_value(key: str, value):
    """A config-file value, rejected unless its JSON type matches its flag.

    ``type(...) is`` keeps booleans out of integer fields.  A JSON integer
    is accepted for a float flag and converted, as the flag would be;
    ``shift_dims`` takes the CLI's comma-separated string or a list of
    integers.
    """
    option, kwargs = _FLAGS[key]
    kind = kwargs.get("type", str)
    if key == "shift_dims" and type(value) is list:
        ok = all(type(d) is int for d in value)
    else:
        ok = type(value) is kind or (kind is float and type(value) is int)
    if not ok:
        raise ValidationError(
            f"config key {key!r} has the wrong JSON type for {option}: {json.dumps(value)}"
        )
    return float(value) if kind is float else value


def _parse_shift_dims(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ValidationError(f"bad --shift-dims value {text!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foguel",
        description="Seeded numerical verification of Foguel-operator identities.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True, metavar="experiment")
    for name, spec in EXPERIMENTS.items():
        p = sub.add_parser(name, help=spec.description)
        for field in _fields(spec):
            option, kwargs = _FLAGS[field]
            if "help" in kwargs:
                kwargs = dict(kwargs, help=kwargs["help"].format(base_tol=spec.base_tol))
            p.add_argument(option, dest=field, default=None, **kwargs)
        p.add_argument("--config", default=None, help="JSON file mirroring these flags")
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"could not read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"config file {path!r} must hold a single JSON object")
    aliases = {"format": "output_format"}
    return {aliases.get(k, k): v for k, v in data.items()}


def _merge(args: argparse.Namespace) -> tuple[ExperimentConfig, str | None]:
    """Explicit flags beat the config file, which beats ``ExperimentConfig``'s defaults."""
    experiment = args.experiment
    fields = _fields(EXPERIMENTS[experiment])
    file_values = _load_config_file(args.config) if args.config else {}
    named = file_values.pop("experiment", experiment)
    if named != experiment:
        raise ValidationError(f"config file is for {named!r}, not for {experiment!r}")
    unknown = set(file_values) - set(fields)
    if unknown:
        raise ValidationError(
            f"config file sets fields not accepted by {experiment}: {sorted(unknown)}"
        )
    values = {k: _file_value(k, v) for k, v in file_values.items() if v is not None}
    values.update((k, getattr(args, k)) for k in fields if getattr(args, k) is not None)
    out = values.pop("out", None)
    if isinstance(values.get("shift_dims"), str):
        values["shift_dims"] = _parse_shift_dims(values["shift_dims"])
    return ExperimentConfig(experiment=experiment, **values), out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config, out = _merge(args)
        report = run_experiment(config)
        payload = write_report(report, out)
        if out is None:
            sys.stdout.buffer.write(payload)
            sys.stdout.buffer.flush()
        print(
            f"{config.experiment}: {report.pass_count}/{config.trials} trials passed "
            f"in {report.wall_time:.2f}s"
            + (f" -> {out}" if out else ""),
            file=sys.stderr,
        )
        return 0 if report.passed else 1
    except ValidationError as exc:
        print(f"foguel: usage error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"foguel: internal consistency error: {exc}", file=sys.stderr)
        return 3
    except FoguelError as exc:
        print(f"foguel: error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # a crash must not share exit 1 with "a property failed"
        print("foguel: crashed; traceback follows", file=sys.stderr)
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
