"""Span tracing from outside the program.

The tracer replaces public functions and methods of the package's modules
with timing wrappers at every place they are bound (the defining module,
each module that imported the name, and the class for methods), records one
span per call in memory, and puts every original back on exit. Self time is
derived afterwards from the recorded intervals.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

PACKAGE = "designest"

# (module, attribute): functions, or "Class.method" for methods. The module
# names the layer. Design.sample is expanded to every subclass that defines
# its own sampler, including the exposure design in the network module.
TARGETS = [
    ("designs", "Design.sample"),
    ("designs", "Design.enumerate_support"),
    ("designs", "build_design"),
    ("designs", "read_group_csv"),
    ("network", "ExposureRules.match_all"),
    ("network", "ExposureRules.validate_on_degrees"),
    ("network", "InterferenceGraph.from_csv"),
    ("network", "ExposureDerivedDesign.structural_zero_cells"),
    ("network", "derive_exposure_design"),
    ("network", "positivity_report"),
    ("moments", "mc_moments"),
    ("moments", "exact_moments"),
    ("moments", "closed_form_or_exact_moments"),
    ("moments", "analytic_crd_moments"),
    ("moments", "analytic_bernoulli_moments"),
    ("moments", "moments_from_support"),
    ("moments", "largest_eigenvalue"),
    ("moments", "design_complexity"),
    ("moments", "DesignMoments.save_npz"),
    ("moments", "DesignMoments.load_npz"),
    ("moments", "DesignMoments.submoments"),
    ("bounds", "aronow_samii_bound"),
    ("bounds", "minus_one_mask"),
    ("bounds", "certify_bound"),
    ("bounds", "psd_clip"),
    ("bounds", "neyman_bound_crd"),
    ("linear", "ExperimentData.from_full"),
    ("linear", "estimate_linear"),
    ("linear", "z_vector"),
    ("linear", "plugin_varbound"),
    ("linear", "estimate_report"),
    ("linear", "load_observed_csv"),
    ("linear", "load_covariates_csv"),
    ("model_assisted", "fit_qmle"),
    ("model_assisted", "qmle_gr"),
    ("model_assisted", "no_harm_alpha"),
    ("model_assisted", "no_harm_gr"),
    ("model_assisted", "opt_gr_linear"),
    ("model_assisted", "opt_gr_logit"),
    ("model_assisted", "opt_i_gr"),
    ("model_assisted", "moment_vector"),
    ("model_assisted", "moment_jacobian"),
    ("model_assisted", "population_qmle"),
    ("model_assisted", "population_no_harm_alpha"),
    ("model_assisted", "population_opt_gr_linear"),
    ("model_assisted", "population_opt_logit"),
    ("model_assisted", "population_opt_i_beta"),
    ("harness", "run_simulation"),
    ("harness", "population_contrast_residual"),
    ("harness", "impute_potential_outcomes"),
    ("harness", "preprocess_covariates"),
    ("cli", "main"),
]


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 at the root
    start: float
    end: float


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by its children (overlapping children are counted once)."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children[idx], key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


class Tracer:
    """Context manager that records a span for every call into TARGETS.

    on_result maps a span name to a callback receiving (tracer, result), for
    counters that need a returned value (for example negative plug-ins).
    """

    def __init__(self, on_result: dict[str, Callable] | None = None):
        self.on_result = on_result or {}
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording
    def _wrap(self, name, fn, name_of_call=None):
        hook = self.on_result.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name_of_call(args, kwargs) if name_of_call else name
            idx = len(self.spans)
            self.spans.append(Span(span_name, self._stack[-1] if self._stack else -1,
                                   time.perf_counter(), 0.0))
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx].end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, result)
            return result

        return wrapper

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _install_function(self, layer, module, attr):
        original = getattr(module, attr)
        name = f"{layer}.{attr}"
        name_of_call = _cli_command_name if name == "cli.main" else None
        wrapper = self._wrap(name, original, name_of_call)
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def _install_method(self, layer, module, cls_name, attr):
        cls = getattr(module, cls_name)
        owners = [cls]
        if cls_name == "Design" and attr == "sample":
            owners = [c for c in _subclasses(cls) if "sample" in c.__dict__]
        for owner in owners:
            raw = owner.__dict__[attr]
            suffix = f":{owner.kind}" if owners != [cls] else ""
            name = f"{layer}.{attr}{suffix}"
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._patch(owner, attr, self._wrap(name, raw))

    def __enter__(self):
        try:
            for layer, attr in TARGETS:
                module = sys.modules[f"{PACKAGE}.{layer}"]
                if "." in attr:
                    self._install_method(layer, module, *attr.split("."))
                else:
                    self._install_function(layer, module, attr)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- aggregation
    def summary(self):
        """Per span name: calls, total (inclusive) seconds, self seconds."""
        table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span, own in zip(self.spans, self_times(self.spans)):
            row = table[span.name]
            row["calls"] += 1
            row["total_s"] += span.end - span.start
            row["self_s"] += own
        return dict(table)


def _cli_command_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.main:{argv[0]}" if argv else "cli.main"


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out += _subclasses(sub)
    return out
