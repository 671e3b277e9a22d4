"""Correctness checks on the outputs of the benchmark's commands.

A command counts as failed if its process exits non-zero or its output fails
the check for its kind:

* gain-grid scans (``check_region_scan``): exact header, gains, labels and
  row order; Duan values equal to the closed forms ``duan_*_closed_grid``
  within ``TOL``; a seeded sample of PPT rows equal to this module's own
  oracle (``numpy.linalg.eigvals`` of Omega times the reduced, partially
  transposed ``output_cm``) within ``TOL``; ``entangled`` and ``region``
  consistent with the values wherever these lie outside ``BAND`` of their
  bound. Inside the band a verdict is roundoff, so it is counted
  (``band_rows``, ``band_entangled``) and not pinned;
* preset outputs (``check_reference``): equal to the output recorded at the
  seed commit in ``refs/``, numbers within ``TOL`` (relative above 1),
  text exactly, verdicts inside ``BAND`` not pinned. Byte identity with the
  reference is reported separately and is not required.

The ``delcfwm`` package must be importable (``src`` on ``sys.path``).
Run as a script, the module serves checks: it reads one JSON list
``[spec, path, seed]`` per line on stdin and answers each with one JSON
line, the fields of its ``CheckResult``, until stdin closes.
"""

from __future__ import annotations

import json
import lzma
import random
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

#: agreement required between a reported value and its reference
TOL = 1e-9
#: roundoff band around a criterion's bound inside which verdicts are not checked
BAND = 1e-9
#: PPT rows per label compared with the oracle in each grid output
PPT_SAMPLE = 64


class CheckFailure(Exception):
    """The output is wrong; the message says where."""


@dataclass
class CheckResult:
    ok: bool
    detail: str = ""
    identical: bool = False
    band_rows: int = 0
    band_entangled: int = 0


def _bound(label: str) -> float:
    return 4.0 if label.startswith("D") else 0.0


def _columns(text: str, fmt: str, header: list) -> dict:
    """Columns of a table output: strings from CSV, JSON values otherwise."""
    if fmt == "csv":
        head, _, body = text.partition("\n")
        if head.split(",") != header:
            raise CheckFailure(f"header {head!r}, expected {','.join(header)!r}")
        flat = body.replace("\n", ",").split(",")
        width = len(header)
        if flat[-1] != "" or (len(flat) - 1) % width or body.count("\n") * width != len(flat) - 1:
            raise CheckFailure("CSV rows do not all have the header's width")
        return {name: flat[pos:-1:width] for pos, name in enumerate(header)}
    rows = json.loads(text)
    if not isinstance(rows, list) or any(list(row) != header for row in rows):
        raise CheckFailure(f"JSON rows do not all have exactly the keys {header}")
    cols = {name: [row[name] for row in rows] for name in header}
    if "entangled" in cols:
        cols["entangled"] = ["true" if v is True else "false" if v is False else repr(v) for v in cols["entangled"]]
    return cols


def _floats(column, name: str) -> np.ndarray:
    try:
        return np.array(column, dtype=float)
    except (TypeError, ValueError) as exc:
        raise CheckFailure(f"column {name} is not numeric: {exc}") from exc


def _tri_region(g1, g2):
    """Expected region per point and whether both of its Duan values lie outside the band."""
    from delcfwm.criteria import duan_tri_closed_grid

    d12, d23 = duan_tri_closed_grid("12", g1, g2), duan_tri_closed_grid("23", g1, g2)
    below12, below23 = d12 < 4.0, d23 < 4.0
    region = np.where(below12 & below23, "III", np.where(below12, "I", np.where(below23, "II", "none")))
    return region, (np.abs(d12 - 4.0) > BAND) & (np.abs(d23 - 4.0) > BAND)


def ppt_oracle(gains, label: str) -> float:
    """PPT value of ``label`` at one gain point, computed independently of the sweep."""
    from delcfwm.model import GainSet, build_quad_transform, build_tri_transform, output_cm

    build = build_tri_transform if len(gains) == 2 else build_quad_transform
    sigma = output_cm(build(GainSet(*(float(g) for g in gains))))
    side_a, side_b = label[4:].split("|")
    kept = sorted(int(m) for m in side_a + side_b)
    idx = [q for m in kept for q in (2 * m - 2, 2 * m - 1)]
    flip = np.array([-1.0 if q % 2 and str(m) in side_a else 1.0 for m in kept for q in (0, 1)])
    reduced = flip[:, None] * sigma[np.ix_(idx, idx)] * flip[None, :]
    omega = np.kron(np.eye(len(kept)), [[0.0, 1.0], [-1.0, 0.0]])
    moduli = np.sort(np.abs(np.linalg.eigvals(omega @ reduced)))
    return float(moduli[:2].mean()) - 1.0


def check_region_scan(path: Path, fmt: str, system: str, axes: list, labels, rng) -> CheckResult:
    """Check a ``region-scan`` output over the grid spanned by ``axes``.

    Each axis is ``{"start", "step", "count"}``; its points are
    ``start + step * arange(count)``, the inclusive range of the config.
    """
    from delcfwm.criteria import duan_quad_closed_grid, duan_tri_closed_grid

    names = ["G1", "G2"] if system == "tri" else ["G1", "G2", "G3"]
    labels = sorted(set(labels))
    n_lab = len(labels)
    grid = [a["start"] + a["step"] * np.arange(a["count"]) for a in axes]
    pts = [g.ravel() for g in np.meshgrid(*grid, indexing="ij")]
    n_pts = pts[0].size
    try:
        cols = _columns(path.read_text(encoding="utf-8"), fmt, names + ["criterion", "value", "entangled", "region"])
        if len(cols["value"]) != n_pts * n_lab:
            raise CheckFailure(f"{len(cols['value'])} rows, expected {n_pts * n_lab}")
        for name, expected in zip(names, pts):
            if not np.array_equal(_floats(cols[name], name), np.repeat(expected, n_lab)):
                raise CheckFailure(f"column {name} differs from the grid in value or row order")
        if cols["criterion"] != labels * n_pts:
            raise CheckFailure("criterion column is not the sorted labels at every point")
        values = _floats(cols["value"], "value").reshape(n_pts, n_lab)
        if not np.isfinite(values).all():
            raise CheckFailure("value column has non-finite entries")
        verdicts = np.array(cols["entangled"]).reshape(n_pts, n_lab)
        band_rows = band_entangled = 0
        for j, label in enumerate(labels):
            v = values[:, j]
            if label.startswith("D"):
                closed = (duan_tri_closed_grid if system == "tri" else duan_quad_closed_grid)(label[1:], *pts)
                worst = float(np.max(np.abs(v - closed)))
                if not worst <= TOL:
                    raise CheckFailure(f"{label}: |value - closed form| reaches {worst:.3e}")
            else:
                for p in rng.sample(range(n_pts), min(PPT_SAMPLE, n_pts)):
                    want = ppt_oracle([g[p] for g in pts], label)
                    if not abs(v[p] - want) <= TOL:
                        raise CheckFailure(f"{label} at point {p}: value {v[p]!r}, oracle {want!r}")
            decided = np.abs(v - _bound(label)) > BAND
            expected = np.where(v < _bound(label), "true", "false")
            wrong = decided & (verdicts[:, j] != expected)
            if wrong.any():
                p = int(np.argmax(wrong))
                raise CheckFailure(f"{label} at point {p}: entangled={verdicts[p, j]} for value {v[p]!r}")
            band_rows += int((~decided).sum())
            band_entangled += int((verdicts[~decided, j] == "true").sum())
        regions = np.array(cols["region"]).reshape(n_pts, n_lab)
        if (regions != regions[:, :1]).any():
            raise CheckFailure("region differs between rows of one grid point")
        if system == "tri":
            expected, decided = _tri_region(*pts)
            wrong = decided & (regions[:, 0] != expected)
        else:
            wrong = regions[:, 0] != ""
        if wrong.any():
            p = int(np.argmax(wrong))
            raise CheckFailure(f"region {regions[p, 0]!r} at point {p} is wrong")
    except (CheckFailure, OSError, ValueError) as exc:
        return CheckResult(False, f"{path.name}: {exc}")
    return CheckResult(True, band_rows=band_rows, band_entangled=band_entangled)


def _same_json(out, ref, where="$"):
    if isinstance(ref, dict):
        if not isinstance(out, dict) or list(out) != list(ref):
            raise CheckFailure(f"{where}: keys differ")
        for key in ref:
            _same_json(out[key], ref[key], f"{where}.{key}")
    elif isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            raise CheckFailure(f"{where}: list length differs")
        for pos, (a, b) in enumerate(zip(out, ref)):
            _same_json(a, b, f"{where}[{pos}]")
    elif isinstance(ref, float) and isinstance(out, (int, float)) and not isinstance(out, bool):
        if not abs(out - ref) <= TOL * max(1.0, abs(ref)):
            raise CheckFailure(f"{where}: {out!r} vs reference {ref!r}")
    elif out != ref or type(out) is not type(ref):
        raise CheckFailure(f"{where}: {out!r} vs reference {ref!r}")


def _same_table(out_text: str, ref_text: str) -> None:
    header = ref_text.partition("\n")[0].split(",")
    out, ref = _columns(out_text, "csv", header), _columns(ref_text, "csv", header)
    if len(out[header[0]]) != len(ref[header[0]]):
        raise CheckFailure(f"{len(out[header[0]])} rows, reference has {len(ref[header[0]])}")
    # verdicts inside the roundoff band of the bound are not pinned
    undecided = np.zeros(len(ref[header[0]]), dtype=bool)
    if "criterion" in ref:
        bounds = np.array([_bound(c) if not c.startswith("channel:") else np.nan for c in ref["criterion"]])
        undecided = np.abs(_floats(ref["value"], "value") - bounds) <= BAND
    tri_scan = header[:3] == ["G1", "G2", "criterion"]
    for name in header:
        if out[name] == ref[name]:
            continue
        differ = np.array(out[name]) != np.array(ref[name])
        if name == "entangled":
            allowed = undecided
        elif name == "region" and tri_scan:
            allowed = ~_tri_region(_floats(ref["G1"], "G1"), _floats(ref["G2"], "G2"))[1]
        elif name in ("criterion", "region"):
            allowed = np.zeros_like(differ)
        else:
            a, b = _floats(out[name], name), _floats(ref[name], name)
            allowed = np.abs(a - b) <= TOL * np.maximum(1.0, np.abs(b))
        if (differ & ~allowed).any():
            row = int(np.argmax(differ & ~allowed))
            raise CheckFailure(f"row {row + 1}, column {name}: {out[name][row]!r} vs reference {ref[name][row]!r}")


def check_reference(path: Path, ref_path: Path) -> CheckResult:
    """Compare an output with the reference recorded at the seed commit."""
    ref_bytes = lzma.decompress(ref_path.read_bytes())
    try:
        out_bytes = path.read_bytes()
        if out_bytes == ref_bytes:
            return CheckResult(True, identical=True)
        out_text, ref_text = out_bytes.decode("utf-8"), ref_bytes.decode("utf-8")
        if path.suffix == ".json":
            _same_json(json.loads(out_text), json.loads(ref_text))
        else:
            _same_table(out_text, ref_text)
    except (CheckFailure, OSError, ValueError) as exc:
        return CheckResult(False, f"{path.name}: {exc}")
    return CheckResult(True)


def run_check(spec: tuple, path: Path, seed: int) -> CheckResult:
    """Run the check ``spec = (kind, params)`` of a command on its output."""
    kind, params = spec
    if kind == "region-scan":
        return check_region_scan(Path(path), rng=random.Random(seed), **params)
    return check_reference(Path(path), Path(params["ref_path"]))


def serve() -> None:
    answers, sys.stdout = sys.stdout, sys.stderr  # nothing else may write to the answer stream
    import delcfwm.criteria  # noqa: F401  (imported before the first line, so it is idle while commands run)
    import delcfwm.model  # noqa: F401

    answers.write("ready\n")
    answers.flush()
    for line in sys.stdin:
        spec, path, seed = json.loads(line)
        answers.write(json.dumps(asdict(run_check(spec, path, seed))) + "\n")
        answers.flush()


if __name__ == "__main__":
    serve()
