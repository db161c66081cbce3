"""In-memory spans around the public functions of polyhardy and numpy.linalg.

``Tracer.install`` wraps every public function defined in a polyhardy
module and rebinds the wrapper under each name that refers to the original
in any ``polyhardy.*`` namespace (so ``from .lattice import slot_apply`` in
another module is traced too).  It also wraps the ``numpy.linalg`` entry
points in both ``numpy.linalg`` and the private module whose globals numpy
itself calls through, which catches the ``svd`` inside
``np.linalg.norm(x, 2)``.  ``uninstall`` restores every original binding.

A span is ``[name, start, end, parent, note]``; ``note`` holds a per-call
measurement for the few functions that have one (an argument key, a result
size, computed flops).  Self time is duration minus the time covered by
child spans (children of one span never overlap: the program is
single-threaded).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np
import numpy.linalg

LAYERS = ("scenario", "disc", "kernel", "lattice", "commutator", "blh", "rigidity", "report", "cli")
LINALG = ("svd", "eigh", "eigvalsh", "eig", "qr", "solve", "lstsq", "inv", "norm", "pinv", "matrix_rank")


def _model_space_key(args, kwargs, result):
    b, n = args[0], args[1]
    return (b.zeros, b.constant, n, kwargs.get("gram_tol"))


def _scenario_key(args, kwargs, result):
    s = args[0]
    return (repr(s.factors), s.degrees, kwargs.get("gram_tol"))


def _max_dim(args, kwargs, result):
    return max(result.shape)


def _compressed_elems(args, kwargs, result):
    return result[0].size


def _operands(args):
    return [a for a in args if isinstance(a, np.ndarray)]


def _linalg_note(name):
    """(flops, bytes, max_dim) of one LAPACK-backed call, from operand shapes.

    Flop counts are the real-arithmetic leading terms of Golub & Van Loan
    (4th ed., sec. 8.6.3 and 8.3.6), times 4 for complex operands; they are
    computed, not counted by hardware.
    """

    def note(args, kwargs, result):
        ops = _operands(args)
        out = result if isinstance(result, tuple) else (result,)
        nbytes = sum(a.nbytes for a in ops) + sum(
            r.nbytes for r in out if isinstance(r, np.ndarray)
        )
        dim = max((max(a.shape[-2:]) for a in ops if a.ndim >= 2), default=0)
        flops = 0.0
        if ops and ops[0].ndim >= 2:
            a = ops[0]
            batch = a.size // (a.shape[-2] * a.shape[-1]) if a.size else 0
            m, n = max(a.shape[-2:]), min(a.shape[-2:])
            scale = 4.0 * batch if np.iscomplexobj(a) else float(batch)
            if name == "svd":
                uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
                flops = scale * ((4 * m * m * n + 8 * m * n * n + 9 * n**3) if uv else (4 * m * n * n - 4 * n**3 / 3))
            elif name in ("eigh", "eigvalsh"):
                flops = scale * (9 * n**3 if name == "eigh" else 4 * n**3 / 3)
        return (flops, nbytes, dim)

    return note


NOTES = {
    "disc.model_space": _model_space_key,
    "lattice.submodule_projection": _scenario_key,
    "kernel.kron_all": _max_dim,
    "commutator.cross_commutator_compressed": _compressed_elems,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, note=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = ("raised", type(exc).__name__)
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[4] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = {
            n: m for n, m in list(sys.modules.items()) if n == "polyhardy" or n.startswith("polyhardy.")
        }
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            module = modules[f"polyhardy.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped[id(obj)] = (obj, self.wrap(name, obj, NOTES.get(name)))
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._rebind(module, attr, obj, hit[1])
        inner = sys.modules[numpy.linalg.svd.__module__]
        for attr in LINALG:
            original = getattr(numpy.linalg, attr)
            wrapper = self.wrap(f"linalg.{attr}", original, _linalg_note(attr))
            for module in {numpy.linalg, inner}:
                if getattr(module, attr, None) is original:
                    self._rebind(module, attr, original, wrapper)

    def _rebind(self, module, attr, original, wrapper) -> None:
        setattr(module, attr, wrapper)
        self._bindings.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()


def self_times(spans: list[list], first: int) -> list[float]:
    """Self time of each span from index ``first`` on."""
    out = [s[2] - s[1] for s in spans[first:]]
    for s in spans[first:]:
        if s[3] >= first:
            out[s[3] - first] -= s[2] - s[1]
    return out


def layer_metrics(spans: list[list], first: int, pass_s: float) -> dict[str, float]:
    """Per-layer counts and self times of the spans recorded since ``first``."""
    selfs = self_times(spans, first)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    distinct: dict[str, set] = defaultdict(set)
    raised: dict[str, int] = defaultdict(int)
    peak: dict[str, float] = defaultdict(float)
    flops: dict[str, float] = defaultdict(float)
    linalg_bytes = 0
    for s, own in zip(spans[first:], selfs):
        name, note = s[0], s[4]
        layer = name.split(".", 1)[0]
        calls[name] += 1
        calls[layer] += 1
        self_s[name] += own
        self_s[layer] += own
        if isinstance(note, tuple) and note and note[0] == "raised":
            raised[name] += 1
        elif name in ("disc.model_space", "lattice.submodule_projection"):
            distinct[name].add(note)
        elif name in ("kernel.kron_all", "commutator.cross_commutator_compressed"):
            peak[name] = max(peak[name], note)
        elif layer == "linalg":
            flops[name] += note[0]
            linalg_bytes += note[1]
            peak["linalg"] = max(peak["linalg"], note[2])
    m: dict[str, float] = {}
    for name in list(calls):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    for name, keys in distinct.items():
        m[f"{name}.distinct"] = len(keys)
    m["lattice.default_degrees.refused"] = raised["lattice.default_degrees"]
    m["disc.model_space.refused"] = raised["disc.model_space"]
    m["kernel.kron_all.max_dim"] = peak["kernel.kron_all"]
    m["commutator.cross_commutator_compressed.max_elems"] = peak["commutator.cross_commutator_compressed"]
    for name in ("linalg.svd", "linalg.eigh"):
        m[f"{name}.flops"] = flops[name]
    m["linalg.bytes"] = linalg_bytes
    m["linalg.max_dim"] = peak["linalg"]
    m["trace.coverage"] = sum(selfs) / pass_s if pass_s > 0 else 0.0
    return m
