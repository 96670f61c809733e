"""Span tracing of swposobs's public functions, from outside the package.

``Tracer.install`` replaces module attributes with wrappers; since the
package calls these functions through module globals or module attributes,
every call made while a job is open records one span
``(name, start, end, parent, job, size, useful)``.  Spans stay in memory
until ``write``.  A span's self time is its duration minus that of its
direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# module -> traced functions, the layer boundaries of the package
LAYERS = {
    "cli": ("main", "load_problem", "serialize_problem"),
    "synth": ("search_gain", "check_conditions", "build_observer"),
    "certify": ("find_lambda",),
    "sim": ("simulate_continuous", "simulate_discrete", "export_csv", "verify_bracket",
            "sample_truth", "make_switching_signal", "validate_truth"),
    "matcore": ("partition", "expm"),
}


def _size(name, args, kwargs, result):
    """Work done by one call: samples, CSV bytes, or LP rows."""
    if name in ("sim.simulate_continuous", "sim.simulate_discrete"):
        return 0 if result is None else int(result.times.size)
    if name == "certify.find_lambda":
        mats = args[0] if args else kwargs["mats"]
        return sum(len(m) for m in mats)
    return 0


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self._saved = []

    def install(self, modules: dict):
        for mod_name, funcs in LAYERS.items():
            module = modules[mod_name]
            for func in funcs:
                orig = getattr(module, func)
                self._saved.append((module, func, orig))
                setattr(module, func, self._wrap(f"{mod_name}.{func}", orig))

    def uninstall(self):
        for module, func, orig in reversed(self._saved):
            setattr(module, func, orig)
        self._saved.clear()

    def _wrap(self, name, orig):
        spans, stack = self.spans, self.stack
        is_export = name == "sim.export_csv"

        def traced(*args, **kwargs):
            job = self.job
            if job is None:
                return orig(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            fileobj = (args[1] if len(args) > 1 else kwargs["fileobj"]) if is_export else None
            pos = fileobj.tell() if is_export else 0
            useful, result = False, None
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
                useful = result is not None or name != "certify.find_lambda"
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                size = (fileobj.tell() - pos if is_export
                        else _size(name, args, kwargs, result))
                spans[idx] = (name, start, end, parent, job, size, useful)

        return traced

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans: list) -> dict:
    """Per-layer counts, self times and ratios from a list of spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, job, size, useful in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    size = defaultdict(int)
    useful_n = defaultdict(int)
    in_search = 0
    job_s = 0.0
    for k, (name, start, end, parent, job, sz, useful) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child_time[k]
        size[name] += sz
        useful_n[name] += useful
        if parent < 0:
            job_s += end - start
        if name == "certify.find_lambda":
            up = parent
            while up >= 0 and spans[up][0] != "synth.search_gain":
                up = spans[up][3]
            in_search += up >= 0

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for mod_name, funcs in LAYERS.items():
        for func in funcs:
            name = f"{mod_name}.{func}"
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_s[name]
        out[mod_name + ".self_frac"] = ratio(
            sum(self_s[f"{mod_name}.{f}"] for f in funcs), job_s)
    for name in ("sim.simulate_continuous", "sim.simulate_discrete"):
        out[name + ".samples"] = size[name]
        out[name + ".us_per_sample"] = ratio(1e6 * self_s[name], size[name])
    out["sim.export_csv.bytes"] = size["sim.export_csv"]
    out["sim.export_csv.ns_per_byte"] = ratio(1e9 * self_s["sim.export_csv"],
                                              size["sim.export_csv"])
    fl = "certify.find_lambda"
    out[fl + ".us_per_call"] = ratio(1e6 * self_s[fl], calls[fl])
    out[fl + ".infeasible_frac"] = ratio(calls[fl] - useful_n[fl], calls[fl])
    out[fl + ".lp_rows"] = ratio(size[fl], calls[fl])
    sg = "synth.search_gain"
    out[sg + ".lp_per_call"] = ratio(in_search, calls[sg])
    out[sg + ".found_frac"] = ratio(useful_n[sg], calls[sg])
    return out
