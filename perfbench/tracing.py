"""Span tracing installed from outside the package under test.

Modules of the package import each other's functions by name (``from
.linalg import matmul``), so wrapping a function where it is defined is not
enough: :class:`Tracer` finds every binding of a layer's public functions in
every loaded module of the package, module-level dicts of functions included
(the CLI's command table), and swaps in a wrapper that records one span per
call.  A span is (name, start, end, parent, work, bytes); spans stay in
memory in flat arrays and are written out once, when the run ends.

Self time is a span's duration minus the duration of its direct children.
Calls nest on one thread, so children never overlap and that difference is
the time the span spent outside every traced callee.
"""

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter_ns

import numpy as np

LAYERS = ("kernels", "linalg", "network", "training", "spectrum", "datagen", "cli")

# Scalar multiplies of each kernel, from its operand shapes.
_KERNEL_MULTS = {
    "matmul": lambda a, b: a.shape[0] * a.shape[1] * b.shape[1],
    "matmul_nt": lambda a, b: a.shape[0] * a.shape[1] * b.shape[0],
    "matmul_tn": lambda a, b: a.shape[1] * a.shape[0] * b.shape[1],
    "hadamard": lambda a, b: a.size,
    "power": lambda x, c: (c - 1) * x.size,
}


def _kernel_probe(mults):
    """Work = multiplies; bytes = operands read plus result written (computed)."""

    def probe(args, result):
        nbytes = sum(a.nbytes for a in args if isinstance(a, np.ndarray))
        return mults(*args), nbytes + result.nbytes

    return probe


def _columns(args, result):
    return args[1].shape[1], 0


def _bytes_out(args, result):
    return 0, len(result)


def _terms(args, result):
    return sum(len(t) for t in result.terms), 0


_PROBES = {
    **{f"kernels.{k}": _kernel_probe(f) for k, f in _KERNEL_MULTS.items()},
    "network.predict_batch": _columns,
    "training.backward": _columns,
    "spectrum.expand_to_spectrum": _terms,
    "spectrum.export_spectrum": _bytes_out,
    "datagen.write_dataset_csv": _bytes_out,
}


def layer_functions(package):
    """Map id(function) -> (layer, public names) for each layer's own functions."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{package}.{layer}")
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                found.setdefault(id(obj), (layer, []))[1].append(name)
    return found


def bindings(package):
    """Every (namespace dict, key, function) that binds a layer function."""
    functions = layer_functions(package)
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]
    out = []
    for module in modules:
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if id(value) in functions:
                out.append((namespace, key, value))
            elif isinstance(value, dict) and not key.startswith("__"):
                out.extend(
                    (value, k, v) for k, v in value.items() if id(v) in functions
                )
    return [
        (ns, key, fn, _span_name(functions[id(fn)], key)) for ns, key, fn in out
    ]


def _span_name(layer_names, key):
    layer, names = layer_names
    return f"{layer}.{key if key in names else names[0]}"


class Tracer:
    """Records nested spans around every bound layer function while installed."""

    def __init__(self, package="crpnn"):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.work = array("q")
        self.nbytes = array("q")
        self._stack = [-1]
        self._wrappers = {}
        self._bindings = bindings(package)

    def __len__(self):
        return len(self.start)

    def _wrapper(self, fn, span):
        key = (id(fn), span)
        if key in self._wrappers:
            return self._wrappers[key]
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        name_id = self._ids[span]
        probe = _PROBES.get(span)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1])
            self.start.append(0)
            self.end.append(0)
            self.work.append(0)
            self.nbytes.append(0)
            stack.append(idx)
            begin = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                finish = perf_counter_ns()
                stack.pop()
                self.start[idx] = begin
                self.end[idx] = finish
            if probe is not None:
                self.work[idx], self.nbytes[idx] = probe(args, result)
            return result

        self._wrappers[key] = traced
        return traced

    def install(self):
        for namespace, key, fn, span in self._bindings:
            namespace[key] = self._wrapper(fn, span)

    def uninstall(self):
        for namespace, key, fn, _ in self._bindings:
            namespace[key] = fn

    def spans(self):
        """The recorded spans as a dict of numpy arrays plus the name table."""
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "work": np.frombuffer(self.work, dtype=np.int64).copy(),
            "nbytes": np.frombuffer(self.nbytes, dtype=np.int64).copy(),
        }


def self_times(start, end, parent):
    """Per-span duration minus the durations of its direct children (same unit)."""
    start = np.asarray(start, dtype=np.int64)
    duration = np.asarray(end, dtype=np.int64) - start
    parent = np.asarray(parent, dtype=np.int64)
    nested = parent >= 0
    covered = np.zeros(duration.shape[0], dtype=np.int64)
    np.add.at(covered, parent[nested], duration[nested])
    return duration - covered
