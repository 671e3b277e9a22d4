"""Child process of the benchmark: run one ``delcfwm`` command in-process.

Usage::

    python3 launch.py RECORD MODE -- CLI_ARGS...

It imports ``delcfwm.cli`` and calls ``main(CLI_ARGS)``, as the ``delcfwm``
console script does, and exits with its return code. MODE is ``0`` (plain),
``1`` (traced, see below) or ``ready``, which exits with 0 as soon as the
command is ready, to sample set-up time alone. Before exiting it
writes RECORD (``marshal``), a dict of ``time.monotonic`` stamps that the
parent can compare with its own spawn and exit times (the clock is
system-wide):

* ``start``: first line of this file ran (interpreter start is over);
* ``imported``: ``import delcfwm.cli`` returned;
* ``main0``/``main1``: the call to ``main`` began and ended;
* ``ready``: the first subcommand handler was entered, i.e. argument
  parsing and config resolution are done and compute is about to start.

With MODE=1 every public module-level function of the package, plus the
private stage functions named in ``STAGES``, is wrapped on every binding
that refers to it (module attributes, ``from ... import`` names and
functions held in module-level dicts and tuples, such as
``cli._HANDLERS`` and ``validation.CHECKS``). Each call records a span
``(id, parent, thread, name, attr, t0, t1)``; spans stay in memory and go
into RECORD as ``spans``. ``attr`` carries the one argument the per-layer
metrics need (a criterion label, a check name, a point count). The scalar
helpers in ``COUNTED`` run once per grid point or output row; a span each
would cost more than the call, so they only count calls (RECORD
``counts``) and their time stays in their caller's self time.
"""

import time

T_START = time.monotonic()

import functools  # noqa: E402
import itertools  # noqa: E402
import marshal  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

#: layer name -> module; the layer is the prefix of every span name
LAYERS = {
    "cli": "delcfwm.cli",
    "presets": "delcfwm.presets",
    "criteria": "delcfwm.criteria",
    "model": "delcfwm.model",
    "gaussian": "delcfwm.gaussian",
    "coherence": "delcfwm.coherence",
    "fock": "delcfwm.fock",
    "validation": "delcfwm.validation",
}

#: private module-level functions that are stages of their layer
STAGES = {
    "cli": (
        "_resolve_config", "_cmd_region_scan", "_cmd_spectrum", "_cmd_channels",
        "_cmd_profile", "_cmd_validate", "_emit_rows", "_write_channels", "_write_text",
    ),
    "criteria": ("_sweep_chunk", "_axis_values"),
    "gaussian": ("_min_symplectic_eigenvalue_batch",),
}

#: per-point or per-row scalar helpers: counted, not spanned
COUNTED = {
    "criteria.criterion_entangled",
    "criteria.duan_tri_closed",
    "criteria.duan_quad_closed",
    "criteria.duan_tri_closed_grid",
    "criteria.duan_quad_closed_grid",
}

HANDLERS = ("_cmd_region_scan", "_cmd_spectrum", "_cmd_channels", "_cmd_profile", "_cmd_validate")


def _points(*arrays):
    import numpy as np

    return int(np.broadcast(*arrays).size)


def _stack_size(sigmas):
    return int(sigmas.size // (sigmas.shape[-1] * sigmas.shape[-2]))


#: span name -> attr(args, kwargs)
ATTRS = {
    "criteria.evaluate_criterion_batch": lambda a, k: a[1].label,
    "criteria.sweep_criteria": lambda a, k: int(k.get("jobs", a[3] if len(a) > 3 else 1)),
    "validation.run_check": lambda a, k: a[0],
    "model.tri_transform_batch": lambda a, k: _points(*a),
    "model.quad_transform_batch": lambda a, k: _points(*a),
    "gaussian._min_symplectic_eigenvalue_batch": lambda a, k: _stack_size(a[0]),
    "coherence.rho3_dressed": lambda a, k: _points(a[2]),
    "coherence.rho3_denominator": lambda a, k: _points(a[2]),
}


def _substitute(value, repl, depth=0):
    """``value`` with every function in ``repl`` replaced: dicts in place,
    tuples rebuilt, two levels deep (``validation.CHECKS`` is a tuple of tuples)."""
    if callable(value) and id(value) in repl:
        return repl[id(value)]
    if depth < 2 and isinstance(value, dict):
        for key, item in value.items():
            new = _substitute(item, repl, depth + 1)
            if new is not item:
                value[key] = new
    elif depth < 2 and isinstance(value, tuple):
        items = tuple(_substitute(item, repl, depth + 1) for item in value)
        if any(new is not old for new, old in zip(items, value)):
            return items
    return value


def rebind(repl: dict) -> None:
    """Point every binding of the package's modules at the replacements.

    ``repl`` maps ``id(original)`` to the replacement function.
    """
    for name, module in list(sys.modules.items()):
        if name != "delcfwm" and not name.startswith("delcfwm."):
            continue
        for attr, value in list(vars(module).items()):
            if attr.startswith("__"):
                continue
            new = _substitute(value, repl)
            if new is not value:
                setattr(module, attr, new)


class Tracer:
    """Records a span around each call of the wrapped functions."""

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNTED, 0)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, name, fn):
        counts, lock = self.counts, self._lock

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with lock:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def wrap(self, name, fn):
        spans, ids, local, clock = self.spans, self._ids, self._local, time.monotonic
        attr = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else -1
            idx = next(ids)
            try:
                info = attr(args, kwargs) if attr else None
            except (IndexError, KeyError, AttributeError, TypeError):
                info = None  # an unexpected call shape must not change the call
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((idx, parent, threading.get_ident(), name, info, t0, t1))

        return traced

    def install(self) -> None:
        import inspect

        repl = {}
        for layer, modname in LAYERS.items():
            module = sys.modules[modname]
            for fname, fn in vars(module).items():
                if not inspect.isfunction(fn) or fn.__module__ != modname:
                    continue
                if fname.startswith("_") and fname not in STAGES.get(layer, ()):
                    continue
                name = f"{layer}.{fname}"
                repl[id(fn)] = (self.count if name in COUNTED else self.wrap)(name, fn)
        rebind(repl)


def _mark_ready(cli, record, stop: bool) -> None:
    """Stamp ``record['ready']`` on the first entry into a subcommand handler
    and, with ``stop``, exit there."""

    def marked(fn):
        @functools.wraps(fn)
        def handler(*args, **kwargs):
            record.setdefault("ready", time.monotonic())
            if stop:
                raise SystemExit(0)
            return fn(*args, **kwargs)

        return handler

    rebind({id(getattr(cli, h)): marked(getattr(cli, h)) for h in HANDLERS})


def main() -> int:
    record_path, mode, sep, *cli_args = sys.argv[1:]
    if sep != "--" or mode not in ("0", "1", "ready"):
        raise SystemExit("usage: launch.py RECORD MODE(0|1|ready) -- CLI_ARGS...")
    record = {"start": T_START}
    import delcfwm.cli as cli

    record["imported"] = time.monotonic()
    tracer = None
    if mode == "1":
        tracer = Tracer()
        tracer.install()
    _mark_ready(cli, record, stop=mode == "ready")
    record["main_tid"] = threading.get_ident()
    record["main0"] = time.monotonic()
    try:
        return cli.main(cli_args)
    finally:
        record["main1"] = time.monotonic()
        if tracer is not None:
            record["spans"], record["counts"] = tracer.spans, tracer.counts
        with open(record_path, "wb") as fh:
            marshal.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
