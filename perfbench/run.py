"""Benchmark of the ``delcfwm`` command line, end to end and layer by layer.

Usage (from the root of a checkout; builds nothing, runs ``src`` directly)::

    python3 perfbench/run.py --workload tri-plane --seed 1 --seconds 25 --trace 0

Workloads (``workloads.py``): ``tri-plane``, ``quad-cube``, ``presets`` and
``validate``. One single-threaded driver runs the workload's commands one
after another, each in a fresh ``python3 launch.py`` process (a closed
loop with one client), checks every output (``checks.py``, in a separate
process) and repeats the whole workload while the next iteration still
fits in ``--seconds`` of measured time; at least one iteration always
runs. Checking outputs comes on top of the measured time.

``--trace 0`` reports the end-to-end metrics, medians over iterations:

* ``wall_s``: first process spawn to last exit of one iteration;
* ``setup_s``: spawn to ready (interpreter start, ``import delcfwm.cli``
  and config resolution done, first subcommand handler entered) of each
  command, the median of its samples, summed over the workload's commands.
  The samples are the command's runs in the iterations plus, where that
  is cheap, set-up-only runs (``launch.py`` MODE ``ready``), up to
  ``SETUP_SAMPLES``;
* ``peak_rss_mb``: the largest ``ru_maxrss`` of any process (``os.wait4``);
* ``ok_frac``: commands that exited 0 with a correct output, over commands
  attempted.

``--trace 1`` alternates untraced and traced iterations (at least one of
each) and reports the per-layer metrics of ``layers.py``: medians over
traced iterations, except ``cli.cmd_s.*``, ``proc.cpu_s`` and
``trace.overhead_s``, which come from the untraced ones.

The last line of stdout is the result, ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is the run record (seed, iterations,
machine, versions, thread variables). The benchmark sets no thread
variables. Work files go to ``.perfbench_work/`` under the checkout and are
removed at exit. Exit code 2 means the checkout has no ``src/delcfwm``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import marshal
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCH = HERE / "launch.py"
CHECKS = HERE / "checks.py"

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
)

#: set-up samples wanted per command, and the most one extra round of them may cost
SETUP_SAMPLES = 5
SETUP_ROUND_S = 2.0

THREAD_VARS = ("OMP_", "OPENBLAS_", "MKL_", "BLIS_", "GOTO_", "VECLIB_", "NUMEXPR_")


@dataclass
class Proc:
    """One finished command of an iteration."""

    key: str
    code: int
    spawn: float
    exit: float
    setup: float
    cpu: float
    maxrss_mb: float
    record: dict
    stderr: str
    out_bytes: int
    check: dict | None = None

    @property
    def ok(self) -> bool:
        return self.code == 0 and (self.check is None or self.check["ok"])


@dataclass
class Iteration:
    traced: bool
    wall: float
    setup: float
    procs: list
    check_s: float = 0.0
    layers: dict | None = None


def _run_command(cmd, work: Path, env: dict, mode: str) -> Proc:
    record_path = work / f"{cmd.key}.record"
    stdout_path, stderr_path = work / f"{cmd.key}.stdout", work / f"{cmd.key}.stderr"
    argv = [sys.executable] + (["-X", "importtime"] if mode == "1" else [])
    argv += [str(LAUNCH), str(record_path), mode, "--"] + cmd.args
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        spawn = time.monotonic()
        child = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=work)
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        exit_ = time.monotonic()
    child.returncode = os.waitstatus_to_exitcode(status)
    record = {}
    if record_path.exists():
        record = marshal.loads(record_path.read_bytes())
        record_path.unlink()
    return Proc(
        key=cmd.key,
        code=child.returncode,
        spawn=spawn,
        exit=exit_,
        setup=record.get("ready", exit_) - spawn,
        cpu=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        record=record,
        stderr=stderr_path.read_text(encoding="utf-8", errors="replace"),
        out_bytes=cmd.out.stat().st_size if cmd.out.exists() else 0,
    )


class Checker:
    """One ``checks.py`` child process that checks outputs on request.

    Outputs are checked outside the driver: a child's ``ru_maxrss`` starts
    from its parent's peak RSS, so the driver, which never imports numpy or
    the package while it measures, must stay small.
    """

    def __init__(self, env: dict, cwd: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(CHECKS)], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=env, cwd=cwd, text=True,
        )
        if self.proc.stdout.readline() != "ready\n":
            raise RuntimeError(f"checker exited with {self.proc.wait()}")

    def __call__(self, spec, path: Path, seed: int) -> dict:
        self.proc.stdin.write(json.dumps([spec, str(path), seed], default=str) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError(f"checker exited with {self.proc.wait()}")
        return json.loads(answer)

    def close(self) -> None:
        """Close the child's stdin, which ends it, and wait; kill it if it lingers."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        finally:
            if self.proc.returncode is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


def run_iteration(commands, work: Path, env: dict, traced: bool, rng, checker) -> Iteration:
    procs = [_run_command(cmd, work, env, "1" if traced else "0") for cmd in commands]
    wall = procs[-1].exit - procs[0].spawn
    checked = time.monotonic()
    for cmd, proc in zip(commands, procs):
        if proc.code == 0 and cmd.check is not None:
            proc.check = checker(cmd.check, cmd.out, rng.randrange(2**32))
        if cmd.out.exists():
            cmd.out.unlink()
    it = Iteration(traced, wall, sum(p.setup for p in procs), procs, time.monotonic() - checked)
    if traced:
        from layers import iteration_metrics, process_metrics

        per_process = [
            process_metrics(p.record, p.spawn, p.exit, p.stderr) for p in procs if "spans" in p.record
        ]
        it.layers = iteration_metrics(per_process, wall)
        it.layers["cli.emit_bytes"] = float(sum(p.out_bytes for p in procs))
        it.layers.update(_check_counts(procs))
    for p in procs:
        p.record = {}  # spans can be large; the iteration keeps only its metrics
    return it


def _check_counts(procs) -> dict:
    checks = [p.check for p in procs if p.check is not None]
    return {
        "cli.outputs_identical": float(sum(c["identical"] for c in checks)),
        "check.band_rows": float(sum(c["band_rows"] for c in checks)),
        "check.band_entangled": float(sum(c["band_entangled"] for c in checks)),
    }


def setup_samples(iterations, commands, work: Path, env: dict) -> dict:
    """Set-up times of each command: its iterations, plus set-up-only runs
    until there are ``SETUP_SAMPLES`` when a round costs under ``SETUP_ROUND_S``."""
    samples = {cmd.key: [] for cmd in commands}
    for it in iterations:
        for p in it.procs:
            samples[p.key].append(p.setup)
    while min(map(len, samples.values())) < SETUP_SAMPLES and min(it.setup for it in iterations) < SETUP_ROUND_S:
        for cmd in commands:
            samples[cmd.key].append(_run_command(cmd, work, env, "ready").setup)
    return samples


def end_to_end(iterations, setups: dict) -> dict:
    plain = [it for it in iterations if not it.traced]
    procs = [p for it in iterations for p in it.procs]
    failed = sum(not p.ok for p in procs)
    return {
        "wall_s": statistics.median(it.wall for it in plain),
        "setup_s": sum(statistics.median(values) for values in setups.values()),
        "peak_rss_mb": statistics.median(max(p.maxrss_mb for p in it.procs) for it in plain),
        "ok_frac": 1.0 - failed / len(procs),
    }


def per_layer(iterations) -> dict:
    from layers import PER_LAYER

    plain = [it for it in iterations if not it.traced]
    traced = [it for it in iterations if it.traced]
    metrics = {}
    for name, _, _ in PER_LAYER:
        metrics[name] = statistics.median(it.layers.get(name, 0.0) for it in traced)
    for key in {p.key for p in plain[0].procs}:
        metrics[f"cli.cmd_s.{key}"] = statistics.median(
            p.exit - p.spawn for it in plain for p in it.procs if p.key == key
        )
    metrics["proc.cpu_s"] = statistics.median(sum(p.cpu for p in it.procs) for it in plain)
    metrics["trace.overhead_s"] = statistics.median(it.wall for it in traced) - statistics.median(
        it.wall for it in plain
    )
    return metrics


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor()


def _blas_versions() -> dict:
    import numpy
    import scipy

    found = {}
    for name, module in (("numpy", numpy), ("scipy", scipy)):
        try:
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            found[name] = f"{blas.get('name')} {blas.get('version')}"
        except (AttributeError, KeyError, TypeError):
            found[name] = None
    return found


def _source_identity() -> dict:
    """Git commit when the checkout is a repository, and a hash of ``src`` always."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def run_record(args, iterations) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "iterations": [
            {"traced": it.traced, "wall_s": it.wall, "setup_s": it.setup, "check_s": it.check_s} for it in iterations
        ],
        "failures": [f"{p.key}: exit {p.code} {p.check['detail'] if p.check else ''}".strip()
                     for it in iterations for p in it.procs if not p.ok],
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_versions(),
        "thread_env": {k: v for k, v in os.environ.items() if k.startswith(THREAD_VARS)},
        **_source_identity(),
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    from layers import PER_LAYER
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrunken workloads for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "delcfwm" / "cli.py").is_file():
        print(f"error: no delcfwm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    # a termination signal unwinds through the finally blocks, which end every child
    signal.signal(signal.SIGTERM, _terminate)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    checker = None
    try:
        checker = Checker(env, work)
        rng = random.Random(args.seed)
        commands = WORKLOADS[args.workload](rng, work, args.tiny)
        # untimed warm-up: byte-compiles the package and fills the file cache
        subprocess.run([sys.executable, "-c", "import delcfwm.cli"], env=env, cwd=work, check=True)

        # --seconds bounds the measured (spawn-to-exit) time; checks come on top
        iterations, measured, last = [], 0.0, {}
        kinds = [False, True] if args.trace else [False]
        while True:
            traced = kinds[len(iterations) % len(kinds)]
            if len(iterations) >= len(kinds) and measured + last.get(traced, max(last.values())) > args.seconds:
                break
            it = run_iteration(commands, work, env, traced, rng, checker)
            iterations.append(it)
            measured += it.wall
            last[traced] = it.wall

        if args.trace:
            metrics, units = per_layer(iterations), {name: unit for name, unit, _ in PER_LAYER}
        else:
            setups = setup_samples(iterations, commands, work, env)
            metrics, units = end_to_end(iterations, setups), dict(END_TO_END)
        attempted = sum(len(it.procs) for it in iterations)
        failed = sum(not p.ok for it in iterations for p in it.procs)
        print(json.dumps(run_record(args, iterations)))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }))
    finally:
        if checker is not None:
            checker.close()
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
