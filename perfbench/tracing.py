"""Span tracing around minpinv's public functions, from outside the package.

``install`` replaces every module binding of a traced function with one
recording wrapper: modules import each other's names with
``from .x import y``, so ``minpinv.mpmi.solve_generalized_root`` and
``minpinv.mpm.solve_generalized_root`` are two bindings of one function
and both must be replaced.  Methods are wrapped at class level.
``uninstall`` puts the originals back, so an untraced phase runs the
library exactly as shipped.

A span is ``(name, start, end, parent, op, attrs)``: ``parent`` is the
index of the enclosing span or -1, ``op`` the operation tag the runner
set, ``attrs`` an optional dict (bytes moved, file format).  Spans stay
in memory until the run ends.
"""

import collections
import functools
import importlib
import os
import time
import types

LAYERS = ("_kernels", "linalg", "mpm", "mpmi", "baselines", "matio",
          "experiments", "cli")

# Called once per matrix element or per argument check: wrapping them would
# cost more than the work they do and say nothing about a layer.
UNTRACED = frozenset({
    "format_float", "reciprocal_or_zero", "require_finite", "require_matrix",
    "require_vector", "default_rank_tolerance", "as_kernel_array",
})

CLI_COMMANDS = {"_cmd_solve": "solve", "_cmd_pinv": "pinv",
                "_cmd_svd_report": "svd-report", "_cmd_experiment": "experiment"}


def span_name(fn):
    """Layer-qualified name: ``kernels.filter_x``, ``cli.solve``, ...

    The numpy/numba flavour suffix of a kernel is dropped, so the name is
    the one the rest of the package calls it by.
    """
    layer = fn.__module__.rsplit(".", 1)[-1].lstrip("_")
    name = CLI_COMMANDS.get(fn.__name__, fn.__qualname__)
    for suffix in ("_numpy", "_numba"):
        if name.endswith(suffix):
            name = name[: -len(suffix)]
    if "." in name:  # a method: Class.method -> method, as the table names it
        name = name.rsplit(".", 1)[-1]
    return f"{layer}.{name}"


def _traced(fn):
    if not isinstance(fn, types.FunctionType):
        return False
    if not fn.__module__.startswith("minpinv."):
        return False
    if fn.__name__ in CLI_COMMANDS:
        return True
    return not fn.__name__.startswith("_") and fn.__name__ not in UNTRACED


def _file_attrs(path):
    fmt = "mtx" if str(path).lower().endswith((".mtx", ".mm")) else "csv"
    return {"bytes": os.path.getsize(path), "format": fmt}


class Tracer:
    """Collects spans and per-operation counters for one process."""

    def __init__(self):
        self.spans = []
        self.counts = collections.defaultdict(collections.Counter)
        self.op = None
        self._stack = []
        self._bindings = []  # (owner, attribute, original) to restore

    # -- recording ---------------------------------------------------------

    def _record(self, name, fn, args, kwargs, annotate=None):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op, None)
        if annotate is not None:
            self.spans[index] = self.spans[index][:5] + (annotate(args, result),)
        return result

    def wrap(self, fn):
        name = span_name(fn)
        annotate = _ANNOTATE.get(name)
        if name == "mpm.solve_generalized_root":
            return self._wrap_root_finder(fn, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._record(name, fn, args, kwargs, annotate)

        return wrapper

    def _wrap_root_finder(self, fn, name):
        """Also wrap the ``eval_fn`` argument and classify each evaluation:
        at a breakpoint it is a bracket-search step, elsewhere a bisection
        step.  A returned ``jumped`` flag counts as a jump root."""

        @functools.wraps(fn)
        def wrapper(eval_fn, breaks, *args, **kwargs):
            break_set = frozenset(float(b) for b in breaks)
            counts = self.counts[self.op]

            def counted(level):
                kind = "bracket" if float(level) in break_set else "bisect"
                counts[f"mpm.root.{kind}_evals"] += 1
                return self._record("mpm.root.eval", eval_fn, (level,), {})

            level, jumped = self._record(
                name, fn, (counted, breaks) + args, kwargs)
            counts["mpm.root.solves"] += 1
            counts["mpm.root.jumps"] += bool(jumped)
            return level, jumped

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every binding of every traced function and method."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("minpinv")
        modules = [package] + [importlib.import_module(f"minpinv.{m}")
                               for m in LAYERS]
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if _traced(obj):
                    self._bind(module, attr, obj, wrappers)
                elif (isinstance(obj, type) and obj.__module__ == module.__name__
                      and obj.__module__.startswith("minpinv.")):
                    for mattr, method in list(vars(obj).items()):
                        if _traced(method):
                            self._bind(obj, mattr, method, wrappers)

    def _bind(self, owner, attr, original, wrappers):
        if original not in wrappers:
            wrappers[original] = self.wrap(original)
        self._bindings.append((owner, attr, original))
        setattr(owner, attr, wrappers[original])

    def uninstall(self):
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings = []

    # -- per-operation summaries --------------------------------------------

    def op_counters(self):
        """Per operation tag: call count per span name plus the
        root-finder counters."""
        out = collections.defaultdict(collections.Counter)
        for span in self.spans:
            out[span[4]][span[0]] += 1
        for op, counts in self.counts.items():
            out[op].update(counts)
        return {op: dict(sorted(c.items())) for op, c in out.items()}


def _annotate_file(args, _result):
    return _file_attrs(args[0])


def _annotate_project(args, _result):
    m, n = args[0].u.shape
    return {"bytes": 8 * m * n}  # U^T u reads all of U once


_ANNOTATE = {
    "matio.read_matrix": _annotate_file,
    "matio.write_matrix": _annotate_file,
    "linalg.project_rhs": _annotate_project,
}


def self_times(spans):
    """Span duration minus the part of its interval its children cover."""
    children = collections.defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out
