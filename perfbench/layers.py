"""Per-layer metrics: their names and how a traced iteration yields them.

A traced iteration runs every command under ``launch.py`` with TRACE=1 and
``python -X importtime``. Each process leaves a record of spans; this module
turns the records of one iteration into the ``per_layer`` metrics, summed
over the iteration's processes. Times are seconds of wall time; where a
layer runs on worker threads (``--jobs``) its busy time is summed over
threads.

Self time is a span's duration minus the part of it that child spans cover.
A span that starts a worker thread's stack is a child of the innermost
main-thread span enclosing it, so a caller waiting on workers is not
charged for their work. ``<layer>.self_s`` is main-thread self time, plus
the main thread's wait on workers shared out over the layers the workers
were busy in. Every main-thread span nests inside ``cli.main``, so the
``<layer>.self_s`` values with ``proc.startup_s``, ``import.cli_s``,
``trace.install_s`` and ``proc.exit_s`` add up to the iteration's wall
time, less ``trace.unaccounted_s`` (the harness's own time between
processes).
"""

from __future__ import annotations

import bisect
from collections import defaultdict

from workloads import COMMAND_KEYS, QUAD_LABELS, TRI_LABELS

LAYER_NAMES = ("cli", "presets", "criteria", "model", "gaussian", "coherence", "fock", "validation")

#: kernel labels of every workload: the tri and quad scans plus the four-mode Duan pairs
KERNEL_LABELS = tuple(sorted(set(TRI_LABELS + QUAD_LABELS + ("D14", "D24", "D34"))))

#: the checks of ``delcfwm validate``
CHECK_NAMES = (
    "closed-form", "symplecticity", "purity", "separability-1-3", "tri-regions",
    "quad-structure", "resonances", "energy-conservation", "capacity", "oracle-tri", "oracle-quad",
)

EMIT = {"cli._emit_rows", "cli._write_channels", "cli._write_text"}
TRANSFORMS = {
    "model.tri_transform_batch", "model.quad_transform_batch", "model.build_tri_transform",
    "model.build_quad_transform", "model.two_mode_squeezer", "model.output_cm",
}
SPECTRA = {"coherence.rho3_dressed", "coherence.rho3_denominator", "coherence.rho3_undressed"}


def metric_label(label: str) -> str:
    """``PPT:1|23`` -> ``ppt_1-23``, ``D12`` -> ``d12``."""
    return label.lower().replace("ppt:", "ppt_").replace("|", "-")


def _metrics():
    s = lambda name: (name, "s", "lower")  # noqa: E731
    n = lambda name: (name, "count", "lower")  # noqa: E731
    return (
        [s("import.cli_s"), s("import.fock_s")]
        + [s("cli.resolve_config_s"), s("cli.rows_s"), s("cli.emit_s"), ("cli.emit_bytes", "bytes", "lower")]
        + [("cli.outputs_identical", "count", "higher")]
        + [s(f"cli.cmd_s.{key}") for key in COMMAND_KEYS]
        + [s("presets.load_s")]
        + [s("criteria.sweep_s"), s("criteria.grid_s"), s("criteria.covariance_s")]
        + [s(f"criteria.kernel_s.{metric_label(lbl)}") for lbl in KERNEL_LABELS]
        + [s("criteria.region_s"), n("criteria.region_calls"), s("criteria.rows_s")]
        + [n("criteria.entangled_calls"), ("criteria.parallel_eff", "frac", "higher")]
        + [s("model.transform_s"), n("model.transform_points")]
        + [s("gaussian.eig_s"), n("gaussian.eig_matrices")]
        + [s("coherence.spectrum_s"), n("coherence.spectrum_points"), s("coherence.find_peaks_s")]
        + [s("coherence.profile_s"), s("coherence.profile_rows_s")]
        + [s("fock.evolve_s"), s("fock.covariance_s")]
        + [s(f"validation.check_s.{name}") for name in CHECK_NAMES]
        + [s(f"{layer}.self_s") for layer in LAYER_NAMES]
        + [s("proc.startup_s"), s("proc.exit_s"), s("proc.cpu_s")]
        + [s("trace.overhead_s"), s("trace.install_s"), s("trace.unaccounted_s")]
        + [n("check.band_rows"), n("check.band_entangled")]
    )


#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER = tuple(_metrics())


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 > end:
            total += t1 - max(t0, end)
            end = t1
    return total


def _importtime(stderr_text: str, module: str) -> float:
    """Cumulative ``-X importtime`` seconds of ``module`` (0 when not imported)."""
    for line in stderr_text.splitlines():
        if line.startswith("import time:"):
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == module:
                return int(fields[1]) * 1e-6
    return 0.0


def process_metrics(record: dict, spawn: float, exit_: float, stderr_text: str) -> dict:
    """Per-layer sums for one traced process, plus the parallel-efficiency terms."""
    spans = record["spans"]
    main_tid = record["main_tid"]
    by_idx = {sp[0]: sp for sp in spans}
    parent = {sp[0]: sp[1] for sp in spans}

    # each worker-thread root becomes a child of the innermost enclosing main-thread span
    main = [sp for sp in spans if sp[2] == main_tid]
    host = {}
    for sp in spans:
        if sp[2] != main_tid and sp[1] == -1:
            enclosing = [m for m in main if m[5] <= sp[5] and m[6] >= sp[6]]
            if enclosing:
                host[sp[0]] = parent[sp[0]] = min(enclosing, key=lambda m: m[6] - m[5])[0]

    children = defaultdict(list)
    for sp in spans:
        if parent[sp[0]] != -1:
            children[parent[sp[0]]].append((sp[5], sp[6]))

    def self_time(sp):
        return (sp[6] - sp[5]) - _union_length(children.get(sp[0], ()))

    def ancestors(sp):
        up = parent[sp[0]]
        while up != -1:
            yield by_idx[up]
            up = parent[up]

    def outermost(sp, names):
        return not any(a[3] in names for a in ancestors(sp))

    out = defaultdict(float)
    # main-thread time spent waiting on workers, per host span, and the workers' busy time by layer
    waiting = defaultdict(list)
    worker_busy = defaultdict(lambda: defaultdict(float))
    eff_busy = eff_capacity = 0.0
    chunks = sorted((sp[5], sp[6]) for sp in spans if sp[3] == "criteria._sweep_chunk")
    for sp in spans:
        name, attr, dur = sp[3], sp[4], sp[6] - sp[5]
        layer = name.partition(".")[0]
        if sp[2] == main_tid:
            out[f"{layer}.self_s"] += self_time(sp)
        else:
            root = next((a for a in [sp, *ancestors(sp)] if a[0] in host), None)
            if root is not None:
                worker_busy[host[root[0]]][layer] += self_time(sp)
                if root is sp:
                    waiting[host[sp[0]]].append((sp[5], sp[6]))
        if name == "cli._resolve_config":
            out["cli.resolve_config_s"] += dur
        elif name.startswith("cli._cmd_"):
            out["cli.rows_s"] += self_time(sp)
        elif name in EMIT and outermost(sp, EMIT):
            out["cli.emit_s"] += dur
        elif name == "presets.load_preset":
            out["presets.load_s"] += dur
        elif name == "criteria.sweep_criteria":
            out["criteria.sweep_s"] += dur
            out["criteria.rows_s"] += self_time(sp)
            lo = bisect.bisect_left(chunks, (sp[5], float("-inf")))
            inside = [c for c in chunks[lo:] if c[1] <= sp[6]]
            if inside:
                window = max(c[1] for c in inside) - min(c[0] for c in inside)
                eff_busy += sum(c[1] - c[0] for c in inside)
                eff_capacity += min(attr or 1, len(inside)) * window
        elif name == "criteria._axis_values":
            out["criteria.grid_s"] += dur
        elif name == "criteria._sweep_chunk":
            out["criteria.covariance_s"] += self_time(sp)
        elif name == "criteria.evaluate_criterion_batch":
            out[f"criteria.kernel_s.{metric_label(attr)}"] += dur
        elif name == "criteria.classify_tri_region":
            out["criteria.region_s"] += dur
            out["criteria.region_calls"] += 1
        elif name in TRANSFORMS:
            if outermost(sp, TRANSFORMS):
                out["model.transform_s"] += dur
                if name in ("model.tri_transform_batch", "model.quad_transform_batch"):
                    out["model.transform_points"] += attr or 0
        elif name == "gaussian._min_symplectic_eigenvalue_batch":
            out["gaussian.eig_s"] += dur
            out["gaussian.eig_matrices"] += attr or 0
        elif name in SPECTRA:
            if outermost(sp, SPECTRA):
                out["coherence.spectrum_s"] += dur
                out["coherence.spectrum_points"] += attr or 0
        elif name == "coherence.find_peaks":
            out["coherence.find_peaks_s"] += dur
        elif name == "coherence.criteria_profile":
            out["coherence.profile_s"] += dur
            out["coherence.profile_rows_s"] += self_time(sp)
        elif name == "fock.evolve_tms":
            out["fock.evolve_s"] += dur
        elif name == "fock.covariance_from_state":
            out["fock.covariance_s"] += dur
        elif name == "validation.run_check":
            out[f"validation.check_s.{attr}"] += dur

    # the main thread's wait on workers goes to the layers the workers were busy in
    for host_idx, intervals in waiting.items():
        busy = worker_busy[host_idx]
        total = sum(busy.values())
        wait = _union_length(intervals)
        for layer, seconds in busy.items():
            out[f"{layer}.self_s"] += wait * seconds / total if total else 0.0

    out["criteria.entangled_calls"] += record["counts"]["criteria.criterion_entangled"]
    out["proc.startup_s"] += record["start"] - spawn
    out["import.cli_s"] += record["imported"] - record["start"]
    out["trace.install_s"] += record["main0"] - record["imported"]
    out["proc.exit_s"] += exit_ - record["main1"]
    out["import.fock_s"] += _importtime(stderr_text, "delcfwm.fock")
    out["_eff_busy"] += eff_busy
    out["_eff_capacity"] += eff_capacity
    return out


def iteration_metrics(per_process: list, wall: float) -> dict:
    """Sum the processes' metrics of one traced iteration into the per-layer metrics."""
    total = defaultdict(float)
    for metrics in per_process:
        for name, value in metrics.items():
            total[name] += value
    accounted = sum(total[f"{layer}.self_s"] for layer in LAYER_NAMES) + sum(
        total[name] for name in ("proc.startup_s", "import.cli_s", "trace.install_s", "proc.exit_s")
    )
    total["trace.unaccounted_s"] = wall - accounted
    busy, capacity = total.pop("_eff_busy"), total.pop("_eff_capacity")
    total["criteria.parallel_eff"] = busy / capacity if capacity else 0.0
    return dict(total)
