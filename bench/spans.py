"""Spans around the package's public functions, recorded from outside it.

The benchmark does not touch ``src/``. Instead, for a traced pass it swaps
each traced function, in every module namespace that holds it, for a
wrapper that records a span: name, start, end, parent span and the op it
belongs to, plus a few computed attributes (terms, digits, input size).
Python resolves module globals at call time, so replacing
``succession.binary.beta_sequence_marginal`` also catches the calls
``predict_next`` makes inside the package. Spans stay in memory and are
written out when the run ends; per-layer metrics are derived from them.
"""

from __future__ import annotations

import json
import time
from math import comb
from types import ModuleType
from typing import Callable


def _bits(value) -> int:
    return value.numerator.bit_length() + value.denominator.bit_length()


# (module, function) -> attributes computed from (result, *args, **kwargs);
# the parameter names mirror the traced function's signature.
TRACED: dict[tuple[str, str], Callable[..., dict] | None] = {
    ("exact", "rising"): lambda r, start, count: {"terms": count, "bits": _bits(r)},
    ("exact", "rising_ratio"): lambda r, num_start, den_start, count: {"bits": _bits(r)},
    ("exact", "beta_sequence_marginal"): lambda r, alpha, beta, successes, failures: {
        "size": successes + failures,
        "bits": _bits(r),
    },
    ("exact", "falling"): None,
    ("exact", "decimal_string"): lambda r, value, digits: {"digits": digits},
    ("binary", "predict_next"): None,
    ("binary", "predict_block"): None,
    ("binary", "posterior_ug"): None,
    ("binary", "marginal_likelihood"): None,
    ("simplex", "mixture_predictive"): None,
    ("simplex", "mixture_posterior"): None,
    ("simplex", "sequence_marginal"): lambda r, counts, component: {
        "size": sum(counts.counts if hasattr(counts, "counts") else counts),
        "zero": r == 0,
    },
    ("lab", "law_from_predictive"): lambda r, rule, t, length: {"size": t**length},
    ("lab", "is_exchangeable"): None,
    ("lab", "has_positive_cylinders"): None,
    ("lab", "canonical_mixture"): lambda r, law, k: {"size": law.length},
    ("lab", "variation_distance"): None,
    ("lab", "admits_exchangeable_extension"): None,
    ("lab", "urn_law"): lambda r, urn, k: {"classes": comb(k + urn.t - 1, urn.t - 1)},
    ("lab", "sufficientness_witness"): None,
    ("cli", "main"): None,
}


def _simplex_rising(r, start, count) -> dict:
    """Calls to rising made from simplex code also count as simplex terms."""
    return {"terms": count, "simplex_terms": count, "bits": _bits(r)}


_RULE_OWNERS = ("lab.law_from_predictive", "lab.sufficientness_witness")


class Tracer:
    """Records spans while installed; see the module docstring.

    Each span is ``[name, start_ns, end_ns, parent_index, op, attrs]``.
    """

    def __init__(self, modules: dict[str, ModuleType]):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._swaps: list[tuple[ModuleType, str, Callable, Callable]] = []
        wrappers: dict[int, Callable] = {}
        simplex_rising = None
        for (module_name, function_name), attrs in TRACED.items():
            original = getattr(modules[module_name], function_name)
            wrappers[id(original)] = self._wrap(
                f"{module_name}.{function_name}", original, attrs
            )
            if (module_name, function_name) == ("exact", "rising"):
                simplex_rising = self._wrap("exact.rising", original, _simplex_rising)
        for module in modules.values():
            for attr, value in vars(module).items():
                wrapper = wrappers.get(id(value))
                if wrapper is None:
                    continue
                if module is modules["simplex"] and attr == "rising":
                    wrapper = simplex_rising
                self._swaps.append((module, attr, value, wrapper))

    def _wrap(self, name: str, fn: Callable, attrs: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def rule(self, fn: Callable) -> Callable:
        """Wrap a predictive rule the benchmark passes into the lab, so its
        calls are counted and attributed to the lab function calling it."""
        return self._wrap("rule", fn, lambda r, counts: {"counts": tuple(counts)})

    def install(self) -> None:
        for module, attr, _, wrapper in self._swaps:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._swaps:
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op, attrs in self.spans:
                record = {"op": op, "name": name, "start_ns": start, "end_ns": end,
                          "parent": parent}
                if attrs:
                    record["attrs"] = attrs
                out.write(json.dumps(record) + "\n")

    def metrics(self, bucket_edges: dict[str, list[int]]) -> dict[str, float]:
        """Per-layer counts and self times, summed over every traced span.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly, so that is the time they cover.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, float] = {}

        def add(key: str, value: float) -> None:
            out[key] = out.get(key, 0) + value

        zero_marginals = 0
        rule_calls = 0
        distinct_counts: set[tuple] = set()
        for index, (name, start, end, parent, op, attrs) in enumerate(spans):
            self_ms = (end - start - child_ns[index]) / 1e6
            if name == "rule":
                rule_calls += 1
                if attrs:  # a rule cut short by the op time limit has none
                    distinct_counts.add((op, attrs["counts"]))
                owner = spans[parent][0] if parent >= 0 else None
                if owner in _RULE_OWNERS:
                    add(f"{owner}.rule_calls", 1)
                continue
            add(f"{name}.calls", 1)
            add(f"{name}.self_ms", self_ms)
            if not attrs:
                continue
            if "terms" in attrs:
                add("exact.rising.terms", attrs["terms"])
            if "simplex_terms" in attrs:
                add("simplex.rising.terms", attrs["simplex_terms"])
            if "bits" in attrs:
                add("exact.result_bits", attrs["bits"])
            if "digits" in attrs:
                add("exact.decimal_string.digits", attrs["digits"])
            if "classes" in attrs:
                add("lab.urn_law.class_entries", attrs["classes"])
            if name == "lab.law_from_predictive":
                add("lab.law_from_predictive.dense_entries", attrs["size"])
            if attrs.get("zero"):
                zero_marginals += 1
            if name in bucket_edges:
                low, high = bucket_edges[name]
                size = attrs["size"]
                bucket = "small" if size <= low else "mid" if size <= high else "large"
                add(f"{name}.self_ms.{bucket}", self_ms)
        marginals = out.get("simplex.sequence_marginal.calls", 0)
        out["simplex.sequence_marginal.zero_share"] = (
            zero_marginals / marginals if marginals else 0.0
        )
        out["lab.rule_cache_ratio"] = (
            len(distinct_counts) / rule_calls if rule_calls else 0.0
        )
        return out
