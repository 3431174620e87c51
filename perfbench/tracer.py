"""Outside-in span tracer for dstrig's public functions.

The package binds names at import (`from .triangles import build_triangle`),
so wrapping a function means rebinding it in every `dstrig.*` module that
holds it.  After installing, the tracer scans those modules again and
fails loudly if any still holds an unwrapped original, because such a
call would silently escape the trace.

Spans are kept in memory as columns (name, parent, start, end, raised,
request) and summarised or written out when the run ends.  A span's self
time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, attribute) of every traced function.  DeSitterPoint is traced
# through its __post_init__, which is point validation.  mink_inner is left
# out on purpose: it runs ~100 times per triangle at under 1 us, so a span
# around it would swamp the trace; its cost is its callers' self time.
TARGETS = (
    ("cli", "main"),
    ("geodesics", "DeSitterPoint"),
    ("geodesics", "classify_segment"),
    ("geodesics", "tangent_toward"),
    ("minkowski", "pseudo_angle"),
    ("minkowski", "real_angle"),
    ("triangles", "classify_triangle"),
    ("triangles", "build_triangle"),
    ("triangles", "polar_triangle"),
    ("triangles", "distinguished_vertex"),
    ("triangles", "triangle_name"),
    ("areas", "girard_area"),
    ("areas", "interior_angles"),
    ("areas", "complex_area"),
    ("oracle", "integrate_area"),
    ("oracle", "random_triangle"),
)
NAMES = tuple(f"{m}.{a}" for m, a in TARGETS)
ROOT_PARENT = -1


class IncompleteTraceError(RuntimeError):
    """A dstrig module still holds an unwrapped traced function."""


def _dstrig_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "dstrig" or name.startswith("dstrig."))]


class Tracer:
    """Install with `with Tracer() as t:`; spans accumulate across installs."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.request = array("i")
        self.current_request = 0
        self.missing: list[str] = []
        self._stack = [ROOT_PARENT]
        self._undo: list = []
        self._originals: dict = {}

    # -- recording -------------------------------------------------------

    def _wrap(self, name_id: int, fn):
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        raised, requests, stack = self.raised, self.request, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            requests.append(self.current_request)
            raised.append(0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped_original__ = fn
        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        mods = {m.__name__: m for m in _dstrig_modules()}
        originals = self._originals = {}
        self.missing = []
        for name_id, (mod_name, attr) in enumerate(TARGETS):
            mod = mods.get(f"dstrig.{mod_name}")
            obj = getattr(mod, attr, None) if mod is not None else None
            if obj is None:
                self.missing.append(NAMES[name_id])
                continue
            if isinstance(obj, type):
                hook = obj.__dict__["__post_init__"]
                self._undo.append((obj, "__post_init__", hook))
                setattr(obj, "__post_init__", self._wrap(name_id, hook))
                continue
            originals[id(obj)] = (obj, self._wrap(name_id, obj))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        try:
            self.check_complete()
        except IncompleteTraceError:
            self.uninstall()
            raise

    def check_complete(self) -> None:
        """Raise IncompleteTraceError if any dstrig module holds an original."""
        originals = self._originals
        leaks = [f"{mod.__name__}.{attr}"
                 for mod in _dstrig_modules()
                 for attr, value in vars(mod).items()
                 if id(value) in originals and originals[id(value)][0] is value]
        leaks += [f"{owner.__name__}.{attr}" for owner, attr, _ in self._undo
                  if isinstance(owner, type)
                  and not hasattr(owner.__dict__[attr], "__wrapped_original__")]
        if leaks:
            raise IncompleteTraceError(f"unwrapped traced functions remain: {leaks}")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- summarising -------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
            "request": np.frombuffer(self.request, dtype=np.int32).copy(),
        }

    def summary(self, scale=1.0) -> dict:
        """Per traced name: calls, total self seconds; plus sampler counts.

        scale multiplies each span's duration (a scalar or one per span).
        """
        c = self.columns()
        n = len(c["name"])
        dur = (c["end"] - c["start"]) * scale
        has_parent = c["parent"] >= 0
        child = np.bincount(c["parent"][has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        k = len(NAMES)
        calls = np.bincount(c["name"], minlength=k)
        self_s = np.bincount(c["name"], weights=self_time, minlength=k)
        per_name = {name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
                    for i, name in enumerate(NAMES)}

        sampler = NAMES.index("oracle.random_triangle")
        classify = NAMES.index("triangles.classify_triangle")
        is_sampler = c["name"] == sampler
        in_sampler = (c["name"] == classify) & has_parent
        in_sampler[in_sampler] = c["name"][c["parent"][in_sampler]] == sampler
        return {
            "per_name": per_name,
            "sampler_calls": int(is_sampler.sum()),
            "sampler_accepted": int((is_sampler & (c["raised"] == 0)).sum()),
            "sampler_attempts": int(in_sampler.sum()),
            "sampler_attempts_raised": int((in_sampler & (c["raised"] == 1)).sum()),
            "spans": n,
        }

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(NAMES), **self.columns())
