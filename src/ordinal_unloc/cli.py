"""Command-line front end.

Subcommands: ``simulate`` (threshold-noise Monte-Carlo grids),
``benchmark`` (RSS / TOA method comparisons) and ``localize`` (file-based
measurement pipeline).  Every run writes result files plus a manifest
that fully determines the outputs (config echo + seed), written last.

Exit codes: 0 success, 1 config error, 2 input-file error, 3 numerical
failure (unreliable result).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .bench import CSV_COLUMNS, ExperimentConfig, result_to_csv, result_to_json, run_benchmark
from .core import (
    ConfigError,
    InputError,
    OrdinalUnlocError,
    SensorField,
    read_sensor_field,
    read_text,
)
from .ingest import (
    DEFAULT_KEEP_FRACTION,
    measurement_signals,
    parse_measurements,
    select_strong_links,
)
from .ordinal import signal_row_sums
from .pipeline import localize
from .unfold import SolverOptions

DEFAULT_TOA_NOISE_GRID = tuple(float(v) for v in np.logspace(-2, 2, 7))
# benchmark options that the other kind's experiment has no use for
_UNUSED_BY_KIND = {"rss": ("noise", "propagation_speed"), "toa": ("g_range", "calibration_g")}
_REPORTED_PARSE_ERRORS = 5  # malformed rows named on stderr and in the manifest

_EPILOG = (
    "results.csv columns: " + ",".join(CSV_COLUMNS) + ". "
    "positions.csv columns: target_id,sample,x,y[,z]."
)


class _Parser(argparse.ArgumentParser):
    # usage problems are config errors (exit code 1), not argparse's 2
    def error(self, message):
        raise ConfigError(message)


def _int_list(text: str) -> tuple[int, ...]:
    """Parse '5,10,20' or an inclusive range '5:20:5'."""
    text = text.strip()
    if ":" in text:
        parts = [int(p) for p in text.split(":")]
        if len(parts) == 2:
            start, stop, step = parts[0], parts[1], 1
        elif len(parts) == 3:
            start, stop, step = parts
        else:
            raise ConfigError(f"bad range {text!r}; expected start:stop[:step]")
        if step <= 0:
            raise ConfigError("range step must be positive")
        return tuple(range(start, stop + 1, step))
    try:
        return tuple(int(p) for p in text.split(",") if p.strip() != "")
    except ValueError:
        raise ConfigError(f"bad integer list {text!r}") from None


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(",") if p.strip() != "")
    except ValueError:
        raise ConfigError(f"bad number list {text!r}") from None


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None
    if value < low:
        raise ConfigError(f"expected an integer >= {low}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ordinal-unloc", epilog=_EPILOG)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, threads_help=None):
        p.add_argument("--config", help="flat key=value config file; flags override")
        p.add_argument("--out", default="results", help="output directory")
        p.add_argument("--seed", type=_nonnegative_int, default=None)
        p.add_argument(
            "--threads", type=_positive_int, default=os.cpu_count() or 1, help=threads_help
        )
        p.add_argument(
            "--restarts",
            type=_positive_int,
            default=8,
            help="validated but unused: the unfolding solver is exact",
        )

    sim = sub.add_parser("simulate", help="ordinal-noise Monte-Carlo grid", epilog=_EPILOG)
    common(sim)
    sim.add_argument("--kind", default="ordinal", help="must be 'ordinal'")
    sim.add_argument("--anchors", type=_int_list, default=(5, 10, 15, 20))
    sim.add_argument("--sigma", type=_float_list, default=(0.0, 0.1, 0.3, 0.5))
    sim.add_argument("--targets", type=_positive_int, default=1)
    sim.add_argument("--field-side", type=float, default=1.0)
    sim.add_argument("--trials", type=_positive_int, default=2000)
    sim.set_defaults(func=cmd_simulate)

    ben = sub.add_parser("benchmark", help="RSS/TOA method comparison", epilog=_EPILOG)
    common(ben)
    ben.add_argument("--kind", default=None, help="'rss' or 'toa'")
    ben.add_argument("--anchors", type=_int_list, default=(5, 10, 15, 20))
    ben.add_argument("--noise", type=_float_list, default=None, help="c*sigma_T^2 grid (toa)")
    ben.add_argument("--targets", type=_positive_int, default=1)
    ben.add_argument("--field-side", type=float, default=None, help="default 10 (rss), 200 (toa)")
    ben.add_argument("--g-range", type=_float_list, default=None, help="exponent range (rss)")
    ben.add_argument("--calibration-g", type=float, default=None, help="fixed exponent (rss)")
    ben.add_argument("--propagation-speed", type=float, default=None, help="c (toa)")
    ben.add_argument("--trials", type=_positive_int, default=2000)
    ben.set_defaults(func=cmd_benchmark)

    loc = sub.add_parser("localize", help="file-based measurement pipeline", epilog=_EPILOG)
    common(
        loc,
        threads_help="validated but unused: localize runs in one process; accepted "
        "because existing command lines, such as perfbench's, pass it",
    )
    loc.add_argument("measurements", help="measurement file (roster, '---', records)")
    loc.add_argument("--field", default=None, help="sensor field CSV overriding the roster")
    loc.add_argument("--keep-fraction", type=float, default=DEFAULT_KEEP_FRACTION)
    loc.add_argument("--aggregator", default="sample", help="median, mean or sample")
    loc.set_defaults(func=cmd_localize)
    parser.commands = sub.choices  # subcommand name -> its parser, for --config
    return parser


def _apply_config_file(command: argparse.ArgumentParser, path: str) -> None:
    """Make the key=value entries of a config file the defaults of the
    subcommand's options.  Parsing the command line again then lets explicit
    flags win and converts each file value with its flag's type."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"config file not found: {path}")
    keys = {a.dest for a in command._actions if a.option_strings} - {"help", "config"}
    values = {}
    for line_no, raw in enumerate(read_text(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        dest = key.replace("-", "_")
        if dest not in keys:
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
        values[dest] = value
    command.set_defaults(**values)


def _check_paths(args) -> None:
    """An empty path would name the current directory: ``--out ""`` would
    write there and ``--field ""`` would try to read it."""
    for dest in ("out", "field"):
        if getattr(args, dest, None) == "":
            raise ConfigError(f"--{dest} must not be empty")


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return int(args.seed)
    return int(np.random.SeedSequence().entropy % (2**63))


def _write_outputs(out_dir: Path, files: dict[str, str], manifest: dict) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, content in files.items():
        path = out_dir / name
        path.write_text(content, encoding="utf-8")
        written.append(path)
    manifest["outputs"] = [str(p) for p in written]
    manifest["finished"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    return written + [manifest_path]


def _manifest_stub(command: str, config: dict, seed: int) -> dict:
    return {
        "command": command,
        "version": __version__,
        "seed": seed,
        "config": config,
        "started": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _run_experiment(args, kind, **settings) -> int:
    """Run one Monte-Carlo experiment from the flags that simulate and
    benchmark share plus the subcommand's ``settings``; any setting not
    given keeps its ``ExperimentConfig`` default."""
    config = ExperimentConfig(
        kind=kind,
        anchor_counts=tuple(args.anchors),
        n_targets=args.targets,
        trials=args.trials,
        seed=args.resolved_seed,
        solver=SolverOptions(restarts=args.restarts),
        **settings,
    )
    manifest = _manifest_stub(args.command, asdict(config), config.seed)
    result = run_benchmark(config, threads=args.threads)
    _write_outputs(
        Path(args.out),
        {"results.csv": result_to_csv(result), "results.json": result_to_json(result)},
        manifest,
    )
    return 3 if result.unreliable.any() else 0


def cmd_simulate(args) -> int:
    if args.kind != "ordinal":
        raise ConfigError(f"simulate supports kind 'ordinal', got {args.kind!r}")
    return _run_experiment(
        args, "ordinal", noise_grid=tuple(args.sigma), field_side=args.field_side
    )


def cmd_benchmark(args) -> int:
    if args.kind not in ("rss", "toa"):
        raise ConfigError(f"benchmark kind must be 'rss' or 'toa', got {args.kind!r}")
    for dest in _UNUSED_BY_KIND[args.kind]:
        if getattr(args, dest) is not None:
            flag = "--" + dest.replace("_", "-")
            raise ConfigError(f"{flag} does not apply to benchmark kind {args.kind!r}")
    settings = {}
    if args.g_range is not None:
        if len(args.g_range) != 2:
            raise ConfigError(f"g-range needs exactly two values, got {tuple(args.g_range)}")
        settings["exponent_low"], settings["exponent_high"] = args.g_range
    if args.calibration_g is not None:
        settings["calibration_exponent"] = args.calibration_g
    if args.propagation_speed is not None:
        settings["propagation_speed"] = args.propagation_speed
    if args.kind == "rss":
        # room-scale field; sub-unit distances make the fixed-G bias vanish
        field_side, noise = 10.0, ()
    else:
        field_side = 200.0
        noise = DEFAULT_TOA_NOISE_GRID if args.noise is None else tuple(args.noise)
    if args.field_side is not None:
        field_side = args.field_side
    return _run_experiment(args, args.kind, field_side=field_side, noise_grid=noise, **settings)


def _positions_csv(field, solution, labels) -> str:
    """One row per solved (sample, target) under its sample's label, then
    each target's average over its solved samples."""
    axes = ["x", "y", "z"][: field.dimension]
    lines = ["target_id," + "sample," + ",".join(axes)]
    for t, target_id in enumerate(field.target_ids):
        rows = solution.positions[solution.solved[:, t], t]
        for label, pos in zip(np.array(labels)[solution.solved[:, t]], rows):
            lines.append(f"{target_id},{label}," + ",".join(repr(float(c)) for c in pos))
        average = np.mean(rows, axis=0)
        lines.append(f"{target_id},average," + ",".join(repr(float(c)) for c in average))
    return "\n".join(lines) + "\n"


def _override_field(field, override):
    """The ``--field`` anchor coordinates in roster order, under the
    roster's ids; the override must name the roster's anchors and targets."""
    if set(override.anchor_ids) != set(field.anchor_ids):
        raise InputError("--field anchor ids do not match the measurement roster")
    if set(override.target_ids) != set(field.target_ids):
        raise InputError("--field target ids do not match the measurement roster")
    row = {sensor_id: k for k, sensor_id in enumerate(override.anchor_ids)}
    return SensorField(
        override.dimension,
        override.anchors[[row[sensor_id] for sensor_id in field.anchor_ids]],
        declared_targets=field.n,
        anchor_ids=field.anchor_ids,
        target_ids=field.target_ids,
    )


def cmd_localize(args) -> int:
    if args.aggregator not in ("median", "mean", "sample"):
        raise ConfigError(f"unknown aggregator {args.aggregator!r}")
    if not (0 < args.keep_fraction <= 1):
        raise ConfigError(f"keep-fraction must be in (0, 1], got {args.keep_fraction}")
    parsed = parse_measurements(args.measurements)
    parse_errors = parsed.parse_errors
    if parse_errors:
        lines = ", ".join(str(e.line) for e in parse_errors[:_REPORTED_PARSE_ERRORS])
        print(
            f"warning: skipped {len(parse_errors)} malformed measurement row(s), "
            f"first at line(s) {lines}",
            file=sys.stderr,
        )
    field = parsed.field
    if args.field is not None:
        field = _override_field(field, read_sensor_field(args.field))
    if field.m < 2:
        raise InputError(f"need at least 2 anchors, roster has {field.m}")
    ms = select_strong_links(parsed, args.keep_fraction)

    values, present = measurement_signals(ms, args.aggregator)
    if args.aggregator == "sample":
        labels = [str(k) for k in range(1, len(values) + 1)]
    else:
        labels = [args.aggregator]
    # every sample holds the same links, so the first one counts them
    linked = present[0, : field.m, field.m :].sum(axis=0).tolist()
    needed = field.dimension + 1
    short = [f"{t} ({c})" for t, c in zip(field.target_ids, linked) if c < needed]
    if short:
        raise OrdinalUnlocError(
            f"target(s) linked to fewer than {needed} anchors: {', '.join(short)}"
        )
    solution = localize(field.anchors, signal_row_sums(values, present, False))
    if not solution.solved.any(axis=0).all():
        raise OrdinalUnlocError("localization failed for at least one target")

    config = {
        "measurements": str(args.measurements),
        "field": args.field,
        "keep_fraction": args.keep_fraction,
        "aggregator": args.aggregator,
        "restarts": args.restarts,
    }
    links = present.shape[1] * (present.shape[1] - 1)
    pooled = int(present[0].sum())  # every sample has the pooled links' records
    manifest = _manifest_stub("localize", config, args.resolved_seed)
    manifest["diagnostics"] = {
        "parse_errors": {
            "count": len(parse_errors),
            "first": [
                {"line": e.line, "message": e.message}
                for e in parse_errors[:_REPORTED_PARSE_ERRORS]
            ],
        },
        "records": {
            "parsed": len(parsed.records),
            "kept": len(ms.records),
            "pooled_links": pooled // 2,
            "missing_link_frac": (links - pooled) / links,
            "samples": len(values),
        },
    }
    _write_outputs(
        Path(args.out),
        {"positions.csv": _positions_csv(field, solution, labels)},
        manifest,
    )
    return 0 if solution.solved.all() else 3


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _apply_config_file(parser.commands[args.command], args.config)
            args = parser.parse_args(argv)
        _check_paths(args)
        args.resolved_seed = _resolve_seed(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OrdinalUnlocError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
