"""In-memory span tracer that wraps the library's public functions.

The tracer rebinds public names in the modules that call them (for
example ``rellich.radial.lp_norm_report``), records one span per call with
name, start, end, parent and operation id, and keeps per-layer counters.
Self time of a span is its duration minus the time covered by its child
spans, so the self times of all spans add up to the traced wall time.

A name that no longer exists in a module is not an error: the metrics fed
by it are reported as unmeasured.  That keeps the benchmark running across
refactors that rename or delete the wrapped functions.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
from collections import defaultdict
from time import perf_counter

import numpy as np

# span name -> layer; the layer of a span decides where its self time goes
LAYER = {
    "decide": "validity",
    "lemma_parameters_flags": "validity",
    "classify_A": "spectral",
    "classify_gamma": "spectral",
    "profile": "profiles",
    "integrate": "quadrature",
    "sup_norm": "quadrature",
    "lp_norm_report": "quadrature",
    "rellich_ratio_separable": "radial",
    "counterexample_ratio": "radial",
    "verify_rellich": "verify",
    "verify_dissipativity": "verify",
    "cli.main": "cli",
}

# (module, attribute) pairs rebound while tracing, by span name; the
# library imports these names into each caller module, so each caller's
# binding is replaced
REBIND = {
    "decide": ("rellich.validity", "rellich.verify", "rellich.cli"),
    "lemma_parameters_flags": ("rellich.validity",),
    "classify_A": ("rellich.spectral", "rellich.cli"),
    "classify_gamma": ("rellich.spectral", "rellich.cli"),
    "integrate": ("rellich.quadrature", "rellich.radial", "rellich.verify"),
    "sup_norm": ("rellich.quadrature", "rellich.radial"),
    "lp_norm_report": ("rellich.quadrature", "rellich.radial"),
    "rellich_ratio_separable": ("rellich.radial", "rellich.verify"),
    "counterexample_ratio": ("rellich.radial", "rellich.verify", "rellich.cli"),
    "verify_rellich": ("rellich.verify", "rellich.cli"),
    "verify_dissipativity": ("rellich.verify",),
}

# metric -> the wrapped names it needs; a metric whose names are all
# missing is reported as unmeasured
NEEDS = {
    "validity.decide_calls": ("decide",),
    "validity.decide_us": ("decide",),
    "validity.members_scanned": ("members_up_to",),
    "spectral.classify_calls": ("classify_A", "classify_gamma"),
    "spectral.classify_us": ("classify_A", "classify_gamma"),
    "profiles.calls": ("profile",),
    "profiles.points": ("profile",),
    "profiles.self_s": ("profile",),
    "quadrature.calls": ("integrate",),
    "quadrature.integrand_points": ("integrate",),
    "quadrature.nonconverged": ("integrate",),
    "quadrature.converged_ratio": ("integrate",),
    "quadrature.sup_calls": ("sup_norm",),
    "quadrature.sup_points": ("sup_norm",),
    "quadrature.self_s": ("integrate", "sup_norm", "lp_norm_report"),
    "radial.ratio_calls": ("rellich_ratio_separable",),
    "radial.ratio_s": ("rellich_ratio_separable",),
    "radial.counterexample_calls": ("counterexample_ratio",),
    "radial.counterexample_s": ("counterexample_ratio",),
    "radial.self_s": ("rellich_ratio_separable", "counterexample_ratio"),
    "verify.rellich_calls": ("verify_rellich",),
    "verify.self_s": ("verify_rellich", "verify_dissipativity"),
}
CASE_P = {1.0: "p1", 1.5: "p1.5", 2.0: "p2", 3.0: "p3", math.inf: "pinf"}
for _tag in CASE_P.values():
    NEEDS[f"verify.case_s.{_tag}"] = ("verify_rellich",)


def _points(s) -> int:
    return int(np.size(s))


def _callable_fields(v) -> dict:
    """The dataclass fields of a profile that hold callables (value, d1, d2)."""
    if not dataclasses.is_dataclass(v):
        return {}
    return {f.name: getattr(v, f.name) for f in dataclasses.fields(v)
            if callable(getattr(v, f.name))}


class Tracer:
    """Spans and counters for one traced pass; install() rebinds, remove() restores."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, op id)
        self.stack: list[list] = []  # open spans: [index, child time]
        self.op_id = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.case_s: dict[str, float] = defaultdict(float)
        self.ratio_reports: list[tuple] = []  # (op id, p, support, denominator)
        self.present: set[str] = set()
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------
    def _enter(self, name: str) -> list:
        idx = len(self.spans)
        parent = self.stack[-1][0] if self.stack else -1
        self.spans.append((name, perf_counter(), 0.0, parent, self.op_id))
        frame = [idx, 0.0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        end = perf_counter()
        idx, child = frame
        name, start, _, parent, op = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, op)
        self.stack.pop()
        dur = end - start
        if self.stack:
            self.stack[-1][1] += dur
        self.calls[name] += 1
        self.incl[name] += dur
        self.self_time[LAYER[name]] += dur - child
        return dur

    def span(self, name: str, fn):
        """Wrap fn so each call records a span called name."""

        def wrapped(*args, **kwargs):
            frame = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return wrapped

    # -- layer-specific wrappers ----------------------------------------
    def _counting(self, fn, key: str):
        def counted(s):
            self.counts[key] += _points(s)
            return fn(s)

        return counted

    def _integrate(self, fn, default_spec):
        def wrapped(f, *args, **kwargs):
            frame = self._enter("integrate")
            try:
                value, err = fn(self._counting(f, "integrand_points"), *args, **kwargs)
            finally:
                self._exit(frame)
            spec = args[2] if len(args) > 2 else kwargs.get("spec", default_spec)
            if err > getattr(spec, "rel_tol", 0.0) * abs(value):
                self.counts["nonconverged"] += 1
            return value, err

        return wrapped

    def _sup_norm(self, fn):
        def wrapped(f, *args, **kwargs):
            frame = self._enter("sup_norm")
            try:
                return fn(self._counting(f, "sup_points"), *args, **kwargs)
            finally:
                self._exit(frame)

        return wrapped

    def _ratio(self, fn):
        def wrapped(params, p, alpha, n, v, *args, **kwargs):
            frame = self._enter("rellich_ratio_separable")
            try:
                rep = fn(params, p, alpha, n, v, *args, **kwargs)
            finally:
                self._exit(frame)
            self.ratio_reports.append((self.op_id, p, v.support, rep.denominator))
            return rep

        return wrapped

    def _verify_rellich(self, fn):
        def wrapped(params, p, *args, **kwargs):
            frame = self._enter("verify_rellich")
            try:
                return fn(params, p, *args, **kwargs)
            finally:
                self.case_s[CASE_P.get(p, f"p{p:g}")] += self._exit(frame)

        return wrapped

    def _members(self, fn):
        def wrapped(hset, *args, **kwargs):
            out = fn(hset, *args, **kwargs)
            self.counts["members_scanned"] += len(out)
            return out

        return wrapped

    def profile(self, v):
        """A copy of a profile whose callables are traced; v itself if not wrappable."""
        fields = _callable_fields(v)
        if not fields:
            return v

        def traced(fn):
            body = self.span("profile", fn)

            def call(s):
                self.counts["profile_points"] += _points(s)
                return body(s)

            return call

        return dataclasses.replace(v, **{k: traced(f) for k, f in fields.items()})

    def _profile_factory(self, fn):
        def wrapped(*args, **kwargs):
            return self.profile(fn(*args, **kwargs))

        return wrapped

    # -- installation --------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        default_spec = getattr(importlib.import_module("rellich.quadrature"),
                               "DEFAULT_QUAD", None)
        factories = {
            "integrate": lambda f: self._integrate(f, default_spec),
            "sup_norm": self._sup_norm,
            "rellich_ratio_separable": self._ratio,
            "verify_rellich": self._verify_rellich,
        }
        for name, modules in REBIND.items():
            for modname in modules:
                mod = importlib.import_module(modname)
                orig = getattr(mod, name, None)
                if orig is None:
                    continue
                make = factories.get(name, lambda f, name=name: self.span(name, f))
                self._set(mod, name, make(orig))
                self.present.add(name)
        validity = importlib.import_module("rellich.validity")
        hset = getattr(validity, "HarmonicSet", None)
        if hset is not None and hasattr(hset, "members_up_to"):
            self._set(hset, "members_up_to", self._members(hset.members_up_to))
            self.present.add("members_up_to")
        if _callable_fields(importlib.import_module("rellich").bump(0.0, 1.0)):
            self.present.add("profile")
        radial = importlib.import_module("rellich.radial")
        if hasattr(radial, "bump"):
            # the counterexample cutoff phi is built inside radial
            self._set(radial, "bump", self._profile_factory(radial.bump))
        return self

    def remove(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # -- results -------------------------------------------------------
    def unmeasured(self) -> list[str]:
        return sorted(m for m, names in NEEDS.items()
                      if not any(n in self.present for n in names))

    def metrics(self) -> dict[str, float]:
        calls, incl, st, cnt = self.calls, self.incl, self.self_time, self.counts
        n_classify = calls["classify_A"] + calls["classify_gamma"]
        n_int = calls["integrate"]
        out = {
            "validity.decide_calls": calls["decide"],
            "validity.decide_us": 1e6 * incl["decide"] / max(calls["decide"], 1),
            "validity.members_scanned": cnt["members_scanned"],
            "spectral.classify_calls": n_classify,
            "spectral.classify_us":
                1e6 * (incl["classify_A"] + incl["classify_gamma"]) / max(n_classify, 1),
            "profiles.calls": calls["profile"],
            "profiles.points": cnt["profile_points"],
            "profiles.self_s": st["profiles"],
            "quadrature.calls": n_int,
            "quadrature.integrand_points": cnt["integrand_points"],
            "quadrature.nonconverged": cnt["nonconverged"],
            "quadrature.converged_ratio":
                (n_int - cnt["nonconverged"]) / n_int if n_int else 0.0,
            "quadrature.sup_calls": calls["sup_norm"],
            "quadrature.sup_points": cnt["sup_points"],
            "quadrature.self_s": st["quadrature"],
            "radial.ratio_calls": calls["rellich_ratio_separable"],
            "radial.ratio_s": incl["rellich_ratio_separable"],
            "radial.counterexample_calls": calls["counterexample_ratio"],
            "radial.counterexample_s": incl["counterexample_ratio"],
            "radial.self_s": st["radial"],
            "verify.rellich_calls": calls["verify_rellich"],
            "verify.self_s": st["verify"],
        }
        for tag in CASE_P.values():
            out[f"verify.case_s.{tag}"] = self.case_s[tag]
        for m in self.unmeasured():
            out[m] = 0.0
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, round(start - t0, 9), round(end - t0, 9),
                                     parent, op]) + "\n")
