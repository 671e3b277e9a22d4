"""Command-line front end.

Subcommands
-----------
region-scan   entanglement criteria over a gain grid (CSV/JSON)
spectrum      coherence spectra over the deviation axis (CSV/JSON)
channels      closed-form + numeric coherent channels (JSON/CSV)
profile       criteria along the deviation axis with dressed gain (CSV/JSON)
validate      run the built-in validation checks

Configuration is a single JSON document. Precedence, lowest to highest:
built-in defaults, ``--preset`` document, ``--config`` file, command-line
flags (``--out``, ``--format`` and, for ``region-scan``, ``--jobs``). Exit
codes: 0 success, 1 runtime or numerical failure or a closed output pipe,
2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from .coherence import (
    AtomicParams,
    DressingCase,
    ResonanceError,
    _check_step,
    _spectrum,
    analytic_resonances,
    channel_capacity,
    criteria_profile,
    find_peaks,
    rho3_dressed,
)
from .criteria import CriterionError, GridAxis, sweep_criteria
from .presets import load_preset
from .validation import run_checks

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    """Invalid configuration (bad preset, schema, labels, paths, grids)."""


REGION_DEFAULTS = {
    "system": "tri",
    "gains": {
        "G1": {"start": 1.0, "stop": 3.0, "step": 0.02},
        "G2": {"start": 1.0, "stop": 3.0, "step": 0.02},
    },
    "criteria": ["D12", "D13", "D23"],
}
SPECTRUM_DEFAULTS = {
    "cases": ["fwm1_s2"],
    "params": {},
    "grid": {"start": -50.0, "stop": 40.0, "step": 0.1},
}
CHANNELS_DEFAULTS = {
    "case": "rho2_e1",
    "params": {},
    "grid": {"start": -50.0, "stop": 40.0, "step": 0.1},
}
PROFILE_DEFAULTS = {
    "system": "tri",
    "case": "rho2_e1",
    "params": {},
    "grid": {"start": -50.0, "stop": 40.0, "step": 0.2},
    "amplitude": 1.0,
    "gains": {"G2": 1.2},
    "criteria": ["D12", "D23"],
}


def _merge(base, overlay):
    """Recursive dict merge; non-dict overlay values replace base values."""
    if not isinstance(base, dict) or not isinstance(overlay, dict):
        return overlay
    merged = dict(base)
    for key, value in overlay.items():
        merged[key] = _merge(merged.get(key), value) if key in merged else value
    return merged


def _resolve_config(args, command: str, defaults: dict) -> dict:
    cfg = dict(defaults)
    if getattr(args, "preset", None):
        try:
            preset = load_preset(args.preset)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
        declared = preset.pop("command", None)
        if declared is not None and declared != command:
            raise ConfigError(
                f"preset {args.preset!r} is for the {declared!r} command, not {command!r}"
            )
        cfg = _merge(cfg, preset)
    if getattr(args, "config", None):
        try:
            text = Path(args.config).read_text(encoding="utf-8")
            overlay = json.loads(text)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(overlay, dict):
            raise ConfigError("config file must contain a JSON object")
        overlay.pop("command", None)
        cfg = _merge(cfg, overlay)
    cfg["out"] = getattr(args, "out", None)
    cfg["format"] = getattr(args, "format", "csv")
    if command == "region-scan":
        cfg["jobs"] = args.jobs
    return cfg


def _atomic_params(cfg) -> AtomicParams:
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("'params' must be an object of atomic parameters")
    try:
        return AtomicParams(**{
            key: _number(value, f"atomic parameter {key}")
            for key, value in params.items()
            if not (key == "omega_s3" and value is None)  # null means omega_s1
        })
    except TypeError as exc:
        raise ConfigError(f"bad atomic parameter: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad atomic parameter value: {exc}") from exc


def _dressing_case(name) -> DressingCase:
    try:
        return DressingCase(name)
    except ValueError as exc:
        valid = ", ".join(c.value for c in DressingCase)
        raise ConfigError(f"unknown dressing case {name!r}; valid: {valid}") from exc


def _number(value, what: str) -> float:
    try:
        if not isinstance(value, bool):  # float() would take JSON true/false as 1/0
            return float(value)
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{what} must be a number, got {json.dumps(value)}")


def _string_list(cfg, key: str) -> list:
    if isinstance(value := cfg.get(key, []), list) and all(isinstance(v, str) for v in value):
        return value
    raise ConfigError(f"'{key}' must be a list of strings, got {json.dumps(value)}")


def _grid_axis(spec, what: str) -> GridAxis:
    if not isinstance(spec, dict) or not {"start", "stop", "step"} <= set(spec):
        raise ConfigError(f"{what} must be an object with start, stop and step")
    return GridAxis(*(_number(spec[k], f"{what} {k}") for k in ("start", "stop", "step")))


def _grid_array(spec) -> np.ndarray:
    try:
        grid = _grid_axis(spec, "'grid'").values()
    except ValueError as exc:
        raise ConfigError(f"invalid 'grid': {exc}") from exc
    if grid.size < 2:
        raise ConfigError(f"'grid' must have at least two points, got {spec}")
    return grid


def _gain_axes(spec) -> dict:
    if not isinstance(spec, dict):
        raise ConfigError("'gains' must be an object mapping G1/G2/G3 to values or ranges")
    return {
        name: _grid_axis(value, f"gain range {name}") if isinstance(value, dict)
        else _number(value, f"gain {name}")
        for name, value in spec.items()
    }


#: rows formatted and written per block
ROW_BLOCK = 4096


def _fmt(value) -> str:
    """CSV text of one value, as ``csv.writer`` writes it among other fields."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip form, locale independent
    if isinstance(value, str):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([value, ""])  # quotes it when needed
        return buf.getvalue()[:-2]  # less the empty field's "," and the "\n"
    return str(value)


def _cells(col, text, cache: dict) -> list:
    """Text of each value of a column block: ``text`` (``_fmt`` or
    ``json.dumps``) of each list item or, cached, of each distinct string of
    a str array; bool arrays are converted in bulk, and float arrays format
    each distinct value once (gain columns repeat it once per criterion)."""
    if not isinstance(col, np.ndarray):
        return list(map(text, col))
    if col.dtype.kind == "b":
        return np.where(col, "true", "false").tolist()
    if col.dtype.kind == "f":
        # distinct bit patterns, so that 0.0 and -0.0 keep their own text
        bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
        texts = list(map(repr, bits.view(float).tolist()))  # shortest round-trip form
        return np.array(texts, dtype=object)[inverse].tolist()
    values = col.tolist()
    for value in set(values).difference(cache):
        cache[value] = text(value)
    return list(map(cache.__getitem__, values))


def _emit_rows(cfg, header: list, *parts) -> None:
    """Write rows as CSV or JSON to cfg['out'] (stdout when unset).

    Each part is a list of equal-length columns (arrays or sequences), one per
    header field; the parts' rows follow each other. The bytes equal
    ``csv.writer`` over ``_fmt`` cells, or ``json.dumps(rows_as_dicts,
    indent=2)``. Rows are streamed in blocks of ROW_BLOCK; callers compute
    and check every value first, so a failing run writes nothing.
    """
    fmt = cfg["format"]
    if fmt == "csv":
        row = ",".join  # every cell is already text
        head = row(map(_fmt, header)) + "\n"
        text, sep, tail, empty = _fmt, "\n", "\n", head
    elif fmt == "json":
        fields = (json.dumps(name).replace("%", "%%") + ": %s" for name in header)
        row = ("  {\n    " + ",\n    ".join(fields) + "\n  }").__mod__
        text, head, sep, tail, empty = json.dumps, "[\n", ",\n", "\n]\n", "[]\n"
    else:
        raise ConfigError(f"unknown output format {fmt!r}; expected csv or json")

    def blocks():
        lead, cache = head, {}
        for columns in parts:
            for lo in range(0, len(columns[0]), ROW_BLOCK):
                cells = [_cells(col[lo:lo + ROW_BLOCK], text, cache) for col in columns]
                yield lead + sep.join(map(row, zip(*cells)))
                lead = sep
        yield empty if lead is head else tail

    _write_text(cfg["out"], blocks())


def _write_text(out, chunks) -> None:
    """Write the strings ``chunks`` in turn to the path ``out`` (stdout when None)."""
    if out is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {out!r}: {exc}") from exc


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_region_scan(cfg) -> int:
    system = cfg.get("system")
    axes = _gain_axes(cfg.get("gains", {}))
    try:
        sweep = sweep_criteria(system, axes, _string_list(cfg, "criteria"), jobs=cfg["jobs"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    n_points, n_crits = sweep.values.shape
    region = sweep.region if sweep.region is not None else np.full(n_points, "")
    columns = _row_columns(sweep) + [np.repeat(region, n_crits)]
    _emit_rows(cfg, [*sweep.axes, "criterion", "value", "entangled", "region"], columns)
    return EXIT_OK


def _row_columns(sweep) -> list:
    """One row per point and criterion: coordinates, label, value, verdict."""
    n_points, n_crits = sweep.values.shape
    return [np.repeat(x, n_crits) for x in sweep.points.T] + [
        np.tile(np.array(sweep.labels), n_points),
        sweep.values.ravel(),
        sweep.entangled.ravel(),
    ]


def _spectrum_cases(cfg) -> list:
    if "case" in cfg:
        return [_dressing_case(cfg["case"])]
    cases = _string_list(cfg, "cases")
    if not cases:
        raise ConfigError("spectrum needs a 'case' or a nonempty 'cases' list")
    return [_dressing_case(c) for c in cases]


def _cmd_spectrum(cfg) -> int:
    params = _atomic_params(cfg)
    grid = _grid_array(cfg.get("grid"))
    cases = _spectrum_cases(cfg)
    if len(cases) > 1 and cfg["out"] is None:
        raise ConfigError("multiple spectrum cases need --out (one file per case)")
    try:
        _check_step(float(grid[1] - grid[0]), params)
        spectra = [(case, *_spectrum(case, params, grid)) for case in cases]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    header = ["delta1", "abs_rho_normalized", "abs_rho_raw", "real", "imag"]
    for case, rho, raw in spectra:
        top = float(raw.max())
        normalized = raw / top if top > 0 else np.zeros_like(raw)
        case_cfg = dict(cfg)
        if len(cases) > 1:
            path = Path(cfg["out"])
            case_cfg["out"] = str(path.with_name(f"{path.stem}_{case.value}{path.suffix}"))
        _emit_rows(case_cfg, header, [grid, normalized, raw, rho.real, rho.imag])
    return EXIT_OK


def _cmd_channels(cfg) -> int:
    params = _atomic_params(cfg)
    case = _dressing_case(cfg.get("case"))
    grid = _grid_array(cfg.get("grid"))
    warnings = []
    try:
        channels = analytic_resonances(case, params)
        peaks = find_peaks(case, params, grid)  # applies the grid-step rule
    except ResonanceError as exc:
        doc = {
            "case": case.value,
            "n_channels": 0,
            "capacity": None,
            "channels": [],
            "warnings": [str(exc)],
        }
        _write_channels(cfg, doc)
        return EXIT_OK
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if len(peaks) != len(channels):
        warnings.append(
            f"numeric peak count {len(peaks)} differs from analytic channel count {len(channels)}"
        )
    entries = []
    for ch in channels:
        entry = {
            "label": ch.label,
            "delta1_analytic": ch.delta1,
            "delta2": ch.delta2,
            "delta2p": ch.delta2p,
            "delta3": ch.delta3,
            "delta1_numeric": None,
            "height": None,
            "position_diff": None,
        }
        if peaks:
            nearest = min(peaks, key=lambda pk: abs(pk.delta1 - ch.delta1))
            entry["delta1_numeric"] = nearest.delta1
            entry["height"] = nearest.height
            entry["position_diff"] = abs(nearest.delta1 - ch.delta1)
        entries.append(entry)
    doc = {
        "case": case.value,
        "n_channels": len(channels),
        "capacity": channel_capacity(len(channels)),
        "channels": entries,
        "warnings": warnings,
    }
    _write_channels(cfg, doc)
    return EXIT_OK


def _write_channels(cfg, doc) -> None:
    if cfg["format"] == "csv":
        header = [
            "label", "delta1_analytic", "delta1_numeric", "position_diff",
            "delta2", "delta2p", "delta3", "capacity",
        ]
        columns = [[ch[name] for ch in doc["channels"]] for name in header[:-1]]
        _emit_rows(cfg, header, columns + [[doc["capacity"]] * len(doc["channels"])])
    else:
        _write_text(cfg["out"], [json.dumps(doc, indent=2) + "\n"])


def _cmd_profile(cfg) -> int:
    params = _atomic_params(cfg)
    case = _dressing_case(cfg.get("case"))
    grid = _grid_array(cfg.get("grid"))
    system = cfg.get("system")
    gains = cfg.get("gains", {})
    if not isinstance(gains, dict) or "G2" not in gains:
        raise ConfigError("profile needs 'gains' with at least G2")
    amplitude = _number(cfg.get("amplitude", 1.0), "'amplitude'")
    g2 = _number(gains["G2"], "gain G2")
    g3 = _number(gains["G3"], "gain G3") if gains.get("G3") is not None else None
    try:
        prof = criteria_profile(
            system, case, params, grid, amplitude, g2, g3, _string_list(cfg, "criteria")
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # channel markers: position, modulated gain there, label; appended after the data
    top = float(np.abs(rho3_dressed(case, params, grid)).max())
    markers = [
        (ch.delta1, float(np.cosh(amplitude * abs(rho3_dressed(case, params, ch.delta1)) / top)),
         f"channel:{ch.label}", ch.delta1, None)
        for ch in analytic_resonances(case, params)
    ]
    header = [*prof.axes, "criterion", "value", "entangled"]
    _emit_rows(cfg, header, _row_columns(prof), list(zip(*markers)))
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        results = run_checks(args.filter)
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}  {status}  [{r.seconds:6.2f}s]  {r.detail}")
    all_ok = all(r.passed for r in results)
    lines.append(f"{'-' * width}")
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    sys.stdout.write("\n".join(lines) + "\n")
    if args.out:
        payload = [
            {"name": r.name, "passed": r.passed, "detail": r.detail, "seconds": r.seconds}
            for r in results
        ]
        _write_text(args.out, [json.dumps(payload, indent=2) + "\n"])
    return EXIT_OK if all_ok else EXIT_RUNTIME


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


def _add_common(sub, default_format: str = "csv") -> None:
    sub.add_argument("--config", help="JSON config file overlaying the preset/defaults")
    sub.add_argument("--preset", help="name of a bundled preset")
    sub.add_argument("--out", help="output path (stdout when omitted)")
    sub.add_argument(
        "--format", choices=("csv", "json"), default=default_format, help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delcfwm",
        description="Cascaded-FWM multipartite entanglement and atomic-coherence toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name, help_text, fmt in (
        ("region-scan", "entanglement criteria over a gain grid", "csv"),
        ("spectrum", "coherence spectra over the deviation axis", "csv"),
        ("channels", "coherent channels: closed-form and numeric positions", "json"),
        ("profile", "criteria along the deviation axis with dressed gain", "csv"),
    ):
        sub = subs.add_parser(name, help=help_text)
        _add_common(sub, default_format=fmt)
        if name == "region-scan":
            sub.add_argument("--jobs", type=int, default=1, help="worker threads for the sweep")

    val = subs.add_parser("validate", help="run the built-in validation checks")
    val.add_argument("--filter", help="run only checks whose name contains this substring")
    val.add_argument("--out", help="also write a JSON report to this path")
    return parser


_HANDLERS = {
    "region-scan": (_cmd_region_scan, REGION_DEFAULTS),
    "spectrum": (_cmd_spectrum, SPECTRUM_DEFAULTS),
    "channels": (_cmd_channels, CHANNELS_DEFAULTS),
    "profile": (_cmd_profile, PROFILE_DEFAULTS),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            code = _cmd_validate(args)
        else:
            handler, defaults = _HANDLERS[args.command]
            code = handler(_resolve_config(args, args.command, defaults))
        sys.stdout.flush()  # here, so that a closed pipe is handled below
        return code
    except (ConfigError, CriterionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except BrokenPipeError:
        # the reader closed stdout (e.g. `| head`): point it at devnull so the
        # interpreter's final flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
