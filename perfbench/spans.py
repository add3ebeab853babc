"""In-memory span tracer for the traced benchmark run.

`Tracer.install` wraps every public function of each layer module,
rebinding it wherever a usdisc module (or the package namespace) binds
it, so calls between and within layers go through the wrapper. It also
wraps numpy.linalg.eigh, eigvalsh and svd, which usdisc reaches through
the `np.linalg` attribute.

A layer span records name, start, end, parent span and request id. Its
self time is its duration minus the durations of the layer spans nested
in it. A numpy span records the same fields but is only a counter: its
time stays inside the self time of the layer that called it, and its
count goes to that innermost layer. Spans are kept in memory while
`keep_spans` is set and written out once, at the end of the run; the
totals behind the per-layer metrics are kept throughout.
"""

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "serialize", "problem", "linalg", "bounds",
          "certificates", "solvers", "oracle", "bb84")
EIG_FUNCTIONS = ("eigh", "eigvalsh", "svd")


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = None
        self.keep_spans = True
        self._stack = []
        self._patched = []
        self.self_time = defaultdict(float)   # "layer.function" -> s
        self.calls = Counter()                # "layer.function" -> count
        self.none_results = Counter()         # "layer.function" -> count
        self.eig_calls = Counter()            # innermost layer -> count
        self.eig_time = defaultdict(float)    # innermost layer -> s

    def _layer_wrapper(self, layer, fn):
        name = f"{layer}.{fn.__name__}"
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            span_id = None
            if self.keep_spans:
                span_id = len(spans)
                spans.append(None)
            frame = [span_id, 0.0, perf_counter(), layer]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span_id, child, start, _ = frame
                dur = end - start
                if span_id is not None:
                    spans[span_id] = (span_id, name, start, end, parent, self.request)
                self.self_time[name] += dur - child
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += dur
            if result is None:
                self.none_results[name] += 1
            return result

        return traced

    def _eig_wrapper(self, fn):
        name = f"numpy.linalg.{fn.__name__}"
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if stack:
                    parent, _, _, layer = stack[-1]
                    self.eig_calls[layer] += 1
                    self.eig_time[layer] += end - start
                    if self.keep_spans:
                        spans.append((len(spans), name, start, end, parent, self.request))

        return traced

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "usdisc" or name.startswith("usdisc.")}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"usdisc.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._layer_wrapper(layer, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        for attr in EIG_FUNCTIONS:
            self._patch(np.linalg, attr, self._eig_wrapper(getattr(np.linalg, attr)))

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def layer_self_time(self, layer):
        prefix = layer + "."
        return sum(t for name, t in self.self_time.items() if name.startswith(prefix))

    def write(self, fh):
        """One JSON object per span; ids and parents are local to this tracer."""
        for span_id, name, start, end, parent, request in self.spans:
            fh.write(json.dumps({
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "request": request,
            }) + "\n")

