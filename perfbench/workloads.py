"""The benchmark's workloads: the ``delcfwm`` commands one iteration runs.

Each workload is a function ``(rng, work, tiny) -> [Command]``. ``rng`` is
seeded from ``--seed``; it sets the grid origins of the gain scans and the
order of the preset commands. The program receives only the ``--config``
files written here (plus preset names and flags). ``tiny`` shrinks every
workload for the smoke test. A command's check is a spec for
``checks.run_check`` that JSON can carry, so the checks can run outside
the driver process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

#: three-mode Duan and PPT labels: every pair and every split
TRI_LABELS = (
    "D12", "D13", "D23",
    "PPT:1|2", "PPT:1|3", "PPT:2|3", "PPT:1|23", "PPT:2|13", "PPT:3|12",
)
#: the 12 four-mode PPT labels of the fig6 preset and ``validate``
QUAD_LABELS = (
    "PPT:1|234", "PPT:2|134", "PPT:3|124", "PPT:4|123", "PPT:12|34", "PPT:13|24",
    "PPT:14|23", "PPT:1|3", "PPT:2|4", "PPT:3|4", "PPT:3|14", "PPT:4|23",
)
#: (subcommand, preset) of every bundled preset; ``None`` runs with defaults
PRESET_COMMANDS = (
    ("region-scan", "fig3"),
    ("region-scan", "fig4"),
    ("region-scan", "fig5"),
    ("region-scan", "fig6"),
    ("spectrum", "fig8_col1"),
    ("spectrum", "fig8_col2"),
    ("spectrum", "fig8_col3"),
    ("spectrum", "figA3_col1"),
    ("spectrum", "figA3_col2"),
    ("spectrum", "figA3_col3"),
    ("profile", "fig9_tri"),
    ("profile", "fig9_quad"),
    ("channels", None),
)
TINY_PRESETS = (("region-scan", "fig6"), ("spectrum", "fig8_col3"), ("profile", "fig9_tri"), ("channels", None))

REFS = Path(__file__).resolve().parent / "refs"


@dataclass
class Command:
    """One CLI process: ``key`` names it in ``cli.cmd_s.<key>``; ``check``
    is ``(kind, params)`` for ``checks.run_check``, or None when the exit
    code alone judges the command."""

    key: str
    args: list
    out: Path
    check: tuple | None


def _seeded_axes(rng, n_axes: int, start: float, step: float, count: int) -> list:
    """Gain axes whose origin is shifted by a seeded fraction of a step.

    The shift is a whole number of 1e-4 so the config text is exact; the
    point count does not depend on the seed.
    """
    axes = []
    for _ in range(n_axes):
        origin = start + rng.randrange(int(round(step / 1e-4))) * 1e-4
        stop = round(origin + step * (count - 1), 4)
        axes.append({"start": round(origin, 4), "stop": stop, "step": step, "count": count})
    return axes


def _grid_scan(name, work, system, axes, labels, fmt, jobs) -> list:
    names = ("G1", "G2") if system == "tri" else ("G1", "G2", "G3")
    gains = {n: {k: a[k] for k in ("start", "stop", "step")} for n, a in zip(names, axes)}
    config = {"system": system, "gains": gains, "criteria": list(labels)}
    cfg_path = work / f"{name}.json"
    cfg_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    out = work / f"{name}.out.{fmt}"
    args = ["region-scan", "--config", str(cfg_path), "--format", fmt, "--jobs", str(jobs), "--out", str(out)]
    check = ("region-scan", {"fmt": fmt, "system": system, "axes": axes, "labels": labels})
    return [Command(f"region-scan.{name}", args, out, check)]


def tri_plane(rng, work: Path, tiny: bool) -> list:
    """201 x 201 three-mode (G1, G2) plane, all nine labels, CSV, one thread."""
    axes = _seeded_axes(rng, 2, 1.0, 0.01, 11 if tiny else 201)
    return _grid_scan("tri-plane", work, "tri", axes, TRI_LABELS, "csv", 1)


def quad_cube(rng, work: Path, tiny: bool) -> list:
    """31^3 four-mode (G1, G2, G3) cube, the 12 PPT labels, JSON, two threads."""
    axes = _seeded_axes(rng, 3, 1.0, 0.05, 5 if tiny else 31)
    return _grid_scan("quad-cube", work, "quad", axes, QUAD_LABELS, "json", 2)


def presets(rng, work: Path, tiny: bool) -> list:
    """Every bundled preset and a default ``channels``, in seeded order."""
    commands = []
    for command, preset in TINY_PRESETS if tiny else PRESET_COMMANDS:
        key = f"{command}.{preset or 'default'}"
        suffix = "json" if command == "channels" else "csv"
        out = work / f"{key}.{suffix}"
        args = [command] + (["--preset", preset] if preset else []) + ["--out", str(out)]
        commands.append(Command(key, args, out, ("reference", {"ref_path": REFS / f"{key}.{suffix}.xz"})))
    rng.shuffle(commands)
    return commands


def validate(rng, work: Path, tiny: bool) -> list:
    """``delcfwm validate``: all 11 checks (the two oracle checks when tiny)."""
    out = work / "validate.json"
    args = ["validate", "--out", str(out)] + (["--filter", "oracle"] if tiny else [])
    return [Command("validate.all", args, out, None)]


WORKLOADS = {
    "tri-plane": tri_plane,
    "quad-cube": quad_cube,
    "presets": presets,
    "validate": validate,
}

#: every ``cli.cmd_s.<key>`` the workloads can report
COMMAND_KEYS = tuple(
    f"{command}.{preset or 'default'}" for command, preset in PRESET_COMMANDS
) + ("region-scan.tri-plane", "region-scan.quad-cube", "validate.all")
