"""Spans around the public functions of each liechar layer, and counters on
per-element arithmetic, installed from outside the program.

A span wraps a function wherever a liechar module binds it (module globals
and class attributes), so calls between modules and within one module are
both seen. Self time is a span's duration minus the durations of the spans
it directly encloses. Per-element arithmetic (mat_mul, finite-field
operations, Cyclotomic construction) gets a counter only: a span there would
cost more than the work it measures.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# metric prefix -> (module, attribute) or (module, class, attribute)
SPANS = {
    "cli.main": ("liechar.cli", "main"),
    "root_datum.build_root_datum": ("liechar.root_datum", "build_root_datum"),
    "root_datum.dual_datum": ("liechar.root_datum", "dual_datum"),
    "root_datum.extended_dynkin": ("liechar.root_datum", "extended_dynkin"),
    "root_datum.highest_root": ("liechar.root_datum", "RootDatum", "highest_root"),
    "root_datum.cartan_type": ("liechar.root_datum", "RootDatum", "cartan_type"),
    "root_datum.sub_datum_from_pairs": ("liechar.root_datum", "sub_datum_from_pairs"),
    "endoscopy.enumerate_split_elliptic": ("liechar.endoscopy", "enumerate_split_elliptic"),
    "endoscopy.center_alcove_action": ("liechar.endoscopy", "center_alcove_action"),
    "endoscopy.pseudo_levi": ("liechar.endoscopy", "pseudo_levi"),
    "endoscopy.fold_to_alcove": ("liechar.endoscopy", "fold_to_alcove"),
    "endoscopy.endoscopic_from_kappa": ("liechar.endoscopy", "endoscopic_from_kappa"),
    "endoscopy.estimate_diagram_check": ("liechar.endoscopy", "estimate_diagram_check"),
    "exact_math.smith_normal_form": ("liechar.exact_math.intmat", "smith_normal_form"),
    "exact_math.cokernel_group": ("liechar.exact_math.intmat", "cokernel_group"),
    "exact_math.abelian_subgroup_type": ("liechar.exact_math.intmat", "abelian_subgroup_type"),
    "finite_lie.build_finite_group": ("liechar.finite_lie", "build_finite_group"),
    "finite_lie.tori_and_regularity": ("liechar.finite_lie", "tori_and_regularity"),
    "finite_lie.is_strongly_regular": ("liechar.finite_lie", "is_strongly_regular"),
    "finite_lie.adjoint_orbit_of": ("liechar.finite_lie", "FiniteLieGroup", "adjoint_orbit_of"),
    "kernels.conjugacy_partition": ("liechar._kernels", "conjugacy_partition"),
    "kernels.orbit_of": ("liechar._kernels", "orbit_of"),
    "kernels.pair_histogram": ("liechar._kernels", "pair_histogram"),
    "dl_spectra.conjugacy_classes": ("liechar.dl_spectra", "conjugacy_classes"),
    "dl_spectra.character_table_dixon": ("liechar.dl_spectra", "character_table_dixon"),
    "dl_spectra.classical_table_oracle": ("liechar.dl_spectra", "classical_table_oracle"),
    "dl_spectra.dl_character": ("liechar.dl_spectra", "dl_character"),
    "dl_spectra.springer_check": ("liechar.dl_spectra", "springer_check"),
    "dl_spectra.dl_jordan_reduction_check": ("liechar.dl_spectra", "dl_jordan_reduction_check"),
    "galois_tori.component_group_pi0": ("liechar.galois_tori", "component_group_pi0"),
    "galois_tori.tn_pairing": ("liechar.galois_tori", "tn_pairing"),
    "padic.topological_jordan": ("liechar.padic", "topological_jordan"),
    "padic.hilbert_symbol": ("liechar.padic", "hilbert_symbol"),
}

# counter name -> targets whose calls it counts
COUNTERS = {
    "kernels.mat_mul.calls": [("liechar._kernels", "mat_mul")],
    "exact_math.cyclotomic.created": [("liechar.exact_math.cyclo", "Cyclotomic", "__init__")],
    "exact_math.ffield.ops": [
        ("liechar.exact_math.ffield", "FiniteField", op)
        for op in ("add", "sub", "neg", "mul", "inv", "pow")
    ],
}

# kernels.points: elements fed to the kernels, read off their inputs
_POINT_ARGS = {
    "kernels.conjugacy_partition": lambda args: len(args[0]),
    "kernels.orbit_of": lambda args: 1,
    "kernels.pair_histogram": lambda args: len(args[1]),
}

MAX_SPANS = 100_000


def _resolve(target):
    mod = sys.modules[target[0]]
    owner = mod if len(target) == 2 else getattr(mod, target[1])
    return owner, target[-1]


class Tracer:
    """Aggregates spans per name (calls and self seconds), keeps the
    first MAX_SPANS raw spans, and counts per-element operations."""

    def __init__(self):
        self.stats = {name: [0, 0.0] for name in SPANS}
        self.counts = {name: 0 for name in COUNTERS}
        self.counts["kernels.points"] = 0
        self.spans = []
        self.dropped = 0
        self.request = None
        self._stack = []  # child-time accumulators of the open spans
        self._next_id = 0
        self._ids = []
        self._patches = []

    # -- wrappers

    def _span(self, name, fn):
        stats = self.stats[name]
        stack, ids = self._stack, self._ids
        points = _POINT_ARGS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if points is not None:
                tracer.counts["kernels.points"] += points(args)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = ids[-1] if ids else None
            stack.append(0.0)
            ids.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                child = stack.pop()
                ids.pop()
                dur = end - start
                if stack:
                    stack[-1] += dur
                stats[0] += 1
                stats[1] += dur - child
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((span_id, parent, name, start, end, tracer.request))
                else:
                    tracer.dropped += 1

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation

    def _replace(self, target, make):
        owner, attr = _resolve(target)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapped = make(original)
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            return
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "liechar" or name.startswith("liechar.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def install(self):
        """Wrap every target whose module is imported (the service never
        imports the CLI); import what is to be traced first."""
        for name, target in SPANS.items():
            if target[0] in sys.modules:
                self._replace(target, lambda fn, n=name: self._span(n, fn))
        for name, targets in COUNTERS.items():
            for target in targets:
                if target[0] in sys.modules:
                    self._replace(target, lambda fn, n=name: self._counter(n, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output

    def metrics(self):
        """calls and self_s for every span name, plus the counters."""
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out.update(self.counts)
        return out

    def write_spans(self, path):
        """Raw spans as JSON lines: id, parent, name, start, end, request."""
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, request in self.spans:
                fh.write(json.dumps([span_id, parent, name, start, end, request]) + "\n")
            if self.dropped:
                fh.write(json.dumps({"dropped": self.dropped}) + "\n")
