"""Outside-in layer trace: wrappers around the public functions of each layer.

``Tracer.install()`` replaces every reference to a traced function inside the
``phrasedec`` package, not only the attribute on the defining module: the
decoder imports ``sample``, ``batched_conditionals`` and ``match_prefix`` into
its own namespace (and ``models`` imports ``sample`` as ``sample_token``), so
patching only the defining module would record nothing.

Each call records a span (name, start, end, parent, scope) in flat arrays.
A function that no longer exists, or that the engine stops calling, simply
records no spans: the layer is reported as absent and its time stays in the
caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, function) pairs, in the order the report lists them
LAYERS = (
    ("harness", "planted_phrase_corpus"),
    ("models", "random_markov"),
    ("models", "ancestral_sample"),
    ("models", "batched_conditionals"),
    ("core", "sample"),
    ("phrase_lib", "build_library"),
    ("phrase_lib", "save_library"),
    ("phrase_lib", "load_library"),
    ("phrase_lib", "match_prefix"),
    ("decoder", "decode"),
    ("decoder", "verify_window"),
    ("decoder", "build_neighborhood"),
    ("decoder", "phrase_acceptance_score"),
    ("decoder", "verify_phrase"),
    ("decoder", "verify_token"),
)


class PhraseWatch:
    """Reconstructs, from the calls it observes, which accepted phrases
    committed tokens that differ from the window's drafts.

    Slots are committed in order, so the slot of an accepted phrase is the
    number of tokens the current ``verify_window`` call committed before it.
    """

    LAYERS = frozenset({
        "phrase_lib.match_prefix",
        "decoder.verify_token",
        "decoder.phrase_acceptance_score",
        "decoder.verify_phrase",
        "decoder.verify_window",
    })

    def __init__(self) -> None:
        self.accepted = 0
        self.accepted_tokens = 0
        self.differing = 0
        self.candidates = 0
        self.broken = False
        self._pos = 0
        self._last_len = 0
        self._hits: list[tuple[int, int]] = []

    def on_return(self, layer: str, fn, args, kwargs, result) -> None:
        if self.broken:
            return
        try:
            if layer == "phrase_lib.match_prefix":
                self.candidates += len(result)
            elif layer == "decoder.verify_token":
                self._pos += 1
            elif layer == "decoder.phrase_acceptance_score":
                self._last_len = len(_arg(fn, args, kwargs, "phrase"))
            elif layer == "decoder.verify_phrase" and result:
                self._hits.append((self._pos, self._last_len))
                self._pos += self._last_len
            elif layer == "decoder.verify_window":
                drafts = tuple(_arg(fn, args, kwargs, "window").drafts)
                committed = tuple(result[0])
                for t, n in self._hits:
                    self.accepted += 1
                    self.accepted_tokens += n
                    self.differing += committed[t : t + n] != drafts[t : t + n]
                self._pos, self._hits = 0, []
        except Exception:  # the engine's signatures changed; stop reconstructing
            self.broken = True


_signature = functools.lru_cache(maxsize=None)(inspect.signature)


def _arg(fn, args, kwargs, name):
    return _signature(fn).bind(*args, **kwargs).arguments[name]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.scopes: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self.scope = array("i")
        self._stack = [-1]
        self._scope = -1
        self.watch = PhraseWatch()
        self._patches: list[tuple[object, str, object]] = []

    def _begin(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.scope.append(self._scope)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _end(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def root(self, scope: str):
        """A span of the benchmark's own that roots every call made inside it."""
        if scope not in self.scopes:
            self.scopes.append(scope)
        self._scope = self.scopes.index(scope)
        i = self._begin(self._name_id("root"))
        try:
            yield
        finally:
            self._end(i)
            self._scope = -1

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, layer: str, fn):
        # _begin and _end inlined with local names: the wrapper runs ~20 times
        # per decoded token, and its cost is the trace overhead
        name_id = self._name_id(layer)
        names, parents, scopes, starts, ends = self.name, self.parent, self.scope, self.start, self.end
        stack, clock, tracer = self._stack, time.perf_counter_ns, self
        watch = self.watch.on_return if layer in PhraseWatch.LAYERS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            scopes.append(tracer._scope)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if watch is not None:
                watch(layer, fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every reference to each traced function in the package."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "phrasedec"]
        for mod_name, fn_name in LAYERS:
            layer = f"{mod_name}.{fn_name}"
            try:
                original = getattr(importlib.import_module(f"phrasedec.{mod_name}"), fn_name)
            except (ImportError, AttributeError):  # reported as an absent layer
                continue
            wrapper = self._wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "scope": np.array(self.scope, dtype=np.int32),
        }

    def summary(self) -> dict[str, dict[str, dict[str, float]]]:
        """Per scope and layer: call count, total time and self time (seconds).

        Self time is a span's duration minus the durations of its direct
        children; the ``root`` entry holds the scope's total time.
        """
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64) / 1e9
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child
        out: dict[str, dict[str, dict[str, float]]] = {}
        for s, scope in enumerate(self.scopes):
            in_scope = a["scope"] == s
            layers = {}
            for n, name in enumerate(self.names):
                mask = in_scope & (a["name"] == n)
                if mask.any():
                    layers[name] = {
                        "calls": int(mask.sum()),
                        "total_s": float(dur[mask].sum()),
                        "self_s": float(self_time[mask].sum()),
                    }
            out[scope] = layers
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), scopes=np.array(self.scopes), **self.arrays()
        )
