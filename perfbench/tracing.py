"""Span recorder for the traced run.

``install`` wraps qfam's public functions wherever qfam's modules hold a
reference to them (modules import one another by name, and SUITES holds
the suite functions). Each call records a span: its name, start, end and
parent. Self time is a span's duration minus the time its child spans
cover. Spans stay in memory until ``write``. With ``alloc`` on, the
semigroup and representation checks also run under tracemalloc, which
slows them; their times are then not used.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

MIB = 2**20

# span name -> (module, attribute): the public functions of each layer.
SPANS = {
    "algebra.column_element_norms": ("qfam.algebra", "column_element_norms"),
    "algebra.orthonormal_basis": ("qfam.algebra", "orthonormal_basis"),
    "linalg.numeric_rank": ("qfam.linalg", "numeric_rank"),
    "morphisms.tensor_morphisms": ("qfam.morphisms", "tensor_morphisms"),
    "morphisms.compose_morphisms": ("qfam.morphisms", "compose_morphisms"),
    # StarMorphism.defect_report is a cached property over this function
    "morphisms.defect_report": ("qfam.morphisms", "_defect_report"),
    "families.compose_families": ("qfam.families", "compose_families"),
    "families.invariance_defects": ("qfam.families", "invariance_defects"),
    "families.commutation_defect": ("qfam.families", "commutation_defect"),
    "families.action_coefficients": ("qfam.families", "action_coefficients"),
    "semigroups.coassociativity_defect": ("qfam.semigroups", "coassociativity_defect"),
    "semigroups.action_defect": ("qfam.semigroups", "action_defect"),
    "semigroups.counit_defect": ("qfam.semigroups", "counit_defect"),
    "semigroups.cancellation_rank": ("qfam.semigroups", "cancellation_rank"),
    "representations.modular_report": ("qfam.representations", "modular_report"),
    "representations.action_matrix": ("qfam.representations", "action_matrix"),
    "representations.magic_unitary_check": ("qfam.representations", "magic_unitary_check"),
    "representations.podles_rank": ("qfam.representations", "podles_rank"),
    "documents.parse_spec_file": ("qfam.documents", "parse_spec_file"),
    "documents.serialize": ("qfam.documents", "serialize"),
    "cli.main_self": ("qfam.cli", "main"),
    "cli.emit_report": ("qfam.cli", "emit_report"),
}

# The random corpus builders of qfam.suites, all recorded as suites.corpus.
CORPUS_BUILDERS = (
    "haar_unitary", "random_source_algebra", "random_algebra", "random_label",
    "random_unital_hom", "random_family", "random_faithful_state",
    "random_diagonal_state", "uniform_state", "conjugation_family",
    "sign_conjugation_family", "diagonal_phase_family", "random_partition",
    "random_magic_unitary", "all_maps_family", "invariant_corpus",
)

SUITE_NAMES = (
    "compose-associativity", "classical-shadow", "ergodicity",
    "invariance-closure", "commutant-closure", "wang-relations",
    "projection-partition", "action-isometry", "modular-identity",
    "cancellation-ranks", "semigroup-axioms", "podles-density",
)

# Calls whose tracemalloc peak is reported, by layer.
PEAK_LAYERS = ("semigroups", "representations")

# Counts and computed sizes, taken from each call's arguments or result.
COUNTERS = {
    "algebra.column_element_norms": ("algebra.norm_columns", lambda a, r: len(r)),
    "linalg.numeric_rank": ("linalg.rank_entries", lambda a, r: a[0].size),
    "morphisms.tensor_morphisms": ("morphisms.lift_mb", lambda a, r: r.matrix.nbytes / MIB),
    "documents.parse_spec_file": ("documents.bytes_parsed", lambda a, r: os.path.getsize(a[0])),
}

# Every per-layer metric, with its unit, in report order.
LAYER_METRICS = (
    [("algebra.column_element_norms_s", "s"), ("algebra.norm_columns", "count"),
     ("algebra.orthonormal_basis_s", "s"), ("algebra.pair_index_s", "s"),
     ("algebra.elements_created", "count"),
     ("linalg.numeric_rank_s", "s"), ("linalg.rank_entries", "count"),
     ("morphisms.tensor_morphisms_s", "s"), ("morphisms.lift_mb", "MB"),
     ("morphisms.compose_morphisms_s", "s"), ("morphisms.defect_report_s", "s"),
     ("families.compose_families_s", "s"), ("families.invariance_defects_s", "s"),
     ("families.commutation_defect_s", "s"), ("families.action_coefficients_s", "s"),
     ("semigroups.coassociativity_defect_s", "s"), ("semigroups.action_defect_s", "s"),
     ("semigroups.counit_defect_s", "s"), ("semigroups.cancellation_rank_s", "s"),
     ("semigroups.peak_alloc_mb", "MB"),
     ("representations.modular_report_s", "s"), ("representations.action_matrix_s", "s"),
     ("representations.magic_unitary_check_s", "s"), ("representations.podles_rank_s", "s"),
     ("representations.peak_alloc_mb", "MB"),
     ("documents.parse_spec_file_s", "s"), ("documents.bytes_parsed", "B"),
     ("documents.serialize_s", "s"),
     ("cli.main_self_s", "s"), ("cli.emit_report_s", "s"),
     ("suites.corpus_s", "s")]
    + [(f"suites.{name}_s", "s") for name in SUITE_NAMES]
    + [("trace.spans", "count"), ("trace.batch_overhead_s", "s")]
)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self, alloc: bool) -> None:
        self.alloc = alloc
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.covered: list[float] = []  # child time of each open span
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)
        self.peaks: dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        layer = name.split(".")[0]
        peak = layer in PEAK_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(index)
            self.covered.append(0.0)
            measure = peak and self.alloc and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if measure:
                    top = tracemalloc.get_traced_memory()[1] / MIB
                    tracemalloc.stop()
                    key = f"{layer}.peak_alloc_mb"
                    self.peaks[key] = max(self.peaks[key], top)
                self.stack.pop()
                self.self_s[name] += end - start - self.covered.pop()
                if self.covered:
                    self.covered[-1] += end - start
                self.spans[index][1:3] = [start, end]
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, result)
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        values = {f"{name}_s": t for name, t in self.self_s.items()}
        values.update(self.counts)
        values.update(self.peaks)
        values["trace.spans"] = len(self.spans)
        return {
            name: values.get(name, 0.0)
            for name, _ in LAYER_METRICS
            if name != "trace.batch_overhead_s"
        }

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                    "spans": self.spans}))


def _replace(modules, original, wrapper) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Route every qfam reference to the traced functions through spans."""
    import qfam.cli  # noqa: F401  (loads every qfam module)
    from qfam.algebra import AlgebraElement, TensorLayout
    from qfam.suites import SUITES

    modules = [m for n, m in sys.modules.items() if n == "qfam" or n.startswith("qfam.")]
    for name, (module, attr) in SPANS.items():
        original = getattr(sys.modules[module], attr)
        _replace(modules, original, tracer.wrap(name, original))
    for attr in CORPUS_BUILDERS:
        original = getattr(sys.modules["qfam.suites"], attr)
        _replace(modules, original, tracer.wrap("suites.corpus", original))
    for suite, original in list(SUITES.items()):
        wrapper = tracer.wrap(f"suites.{suite}", original)
        SUITES[suite] = wrapper
        _replace(modules, original, wrapper)

    pair_index = functools.cached_property(
        tracer.wrap("algebra.pair_index", TensorLayout.__dict__["pair_index"].func)
    )
    pair_index.__set_name__(TensorLayout, "pair_index")
    TensorLayout.pair_index = pair_index

    init = AlgebraElement.__init__

    def counted_init(element, algebra, blocks):
        tracer.counts["algebra.elements_created"] += 1
        init(element, algebra, blocks)

    AlgebraElement.__init__ = counted_init
