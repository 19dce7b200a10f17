"""Spans around the public functions of each relequil module.

``Tracer.install`` replaces every public function of the layer modules (and
``Matrix.__matmul__``) by a timing wrapper at every import site: each
``relequil`` module attribute that holds the original function is rebound.
``uninstall`` restores the originals.  Spans stay in memory as tuples
(span id, parent id, request id, name, start ns, end ns) until ``write``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "jsonio", "stability", "spectral_flow", "nbody", "matrix_core",
          "rational_poly")


def _layer_module(layer: str):
    # relequil/__init__ rebinds ``relequil.spectral_flow`` to the function of
    # that name, so the modules are taken from sys.modules.
    return sys.modules[f"relequil.{layer}"]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.self_ns: dict = defaultdict(int)
        self.calls: dict = defaultdict(int)
        self.request = -1
        self._stack: list = []  # [span id, child ns] per open span
        self._next_id = 0
        self._patched: list = []  # (owner, attribute, original)

    def _wrap(self, name: str, fn):
        clock = time.perf_counter_ns
        stack, spans = self._stack, self.spans
        self_ns, calls = self.self_ns, self.calls

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_ns[name] += dur - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                spans.append((sid, parent, self.request, name, start, end))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            mod = _layer_module(layer)
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if callable(fn) and getattr(fn, "__module__", None) == mod.__name__ \
                        and not isinstance(fn, type):
                    originals[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "relequil" and not mod_name.startswith("relequil."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))
        matrix = _layer_module("matrix_core").Matrix
        original = matrix.__matmul__
        matrix.__matmul__ = self._wrap("matrix_core.matmul", original)
        self._patched.append((matrix, "__matmul__", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, req, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "request": req,
                                     "name": name, "start_ns": start, "end_ns": end}))
                fh.write("\n")
