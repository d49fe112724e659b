"""Span tracer for the traced benchmark run.

The tracer wraps k3lat's public functions from outside the program.  Each
function is replaced under every name a module bound it to (the module
that defines it and every module that imported it), so a call made through
``classify.check_extendable`` is recorded exactly like one made through
``glue.check_extendable``.  The span's name is always the defining layer:
``glue.check_extendable``.  Because calls nest synchronously, a stack of
open spans gives each span its parent, and spans nest as
cli -> classify -> glue/fqm/lattice -> enumeration/exact.

Spans are kept in memory as (name, start, end, parent, run id) tuples and
written out when the run ends.  Per-element kernels such as
``exact.mat_vec`` and ``exact.mat_mul`` are deliberately not wrapped: they
run millions of times and the wrapper would cost more than they do.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "classify", "glue", "fqm", "lattice", "enumeration",
          "exact", "hilb2")

# layer -> public functions whose calls become spans
TRACED = {
    "cli": ("parse_dataset", "run_table", "format_table"),
    "classify": ("classify", "good_isometries"),
    "glue": ("check_extendable", "divisibility_in_glued",
             "partner_disc_candidates"),
    "fqm": ("anti_embeddings", "k3sq_glue_admissible", "hom_preimage",
            "hom_closure_images"),
    "lattice": ("disc_map", "induced_map", "invariant_and_coinvariant"),
    "enumeration": ("is_isometric", "vectors_of_norm", "all_automorphisms",
                    "automorphism_group"),
    "exact": ("smith_normal_form", "rational_inverse", "bareiss_det",
              "multiplicative_order", "matrix_closure"),
    "hilb2": ("obstruction_report", "ample_model_verdict"),
}


class Tracer:
    """Installs span-recording wrappers and turns the spans into metrics."""

    def __init__(self, modules: dict):
        self.modules = modules  # layer name -> imported k3lat module
        self.spans: list = []
        self.stack: list[int] = []
        self.run_id = ""
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.by_op: dict[str, Counter] = defaultdict(Counter)
        self._saved: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- wrapping

    def _observe(self, name, args, result) -> None:
        """Work counters taken where the work happens."""
        op = self.by_op[self.run_id]
        if name == "glue.check_extendable":
            if result[0]:
                self.counts["extend_accepted"] += 1
                op["rows_pre_dedup"] += 1
        elif name == "fqm.anti_embeddings":
            self.counts["anti_embeddings_found"] += len(result)
            op["anti_embeddings"] += len(result)
        elif name == "fqm.k3sq_glue_admissible":
            if result:
                self.counts["admissible"] += 1
                key = (self.run_id, args[0], frozenset(args[1].elements()))
                if key not in self.distinct["admissible_images"]:
                    self.distinct["admissible_images"].add(key)
                    op["admissible_images"] += 1
        elif name == "lattice.induced_map":
            self.distinct["induced_map"].add(
                (args[0].gram, tuple(tuple(r) for r in args[1])))
        elif name == "enumeration.vectors_of_norm":
            self.counts["vectors"] += len(result)
        elif name == "classify.classify":
            self.counts["rows_kept"] += len(result)
            op["rows_kept"] += len(result)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observe = self._observe
        is_classify = name == "classify.classify"

        def traced(*args, **kwargs):
            outer_id = self.run_id
            if is_classify:
                # one classify call is one group: its spans share a run id
                self.run_id = args[2]
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id)
            observe(name, args, result)
            self.run_id = outer_id
            return result

        traced.__wrapped__ = fn
        for attr in ("cache_clear", "cache_info"):  # functools caches
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def install(self) -> None:
        """Wrap every traced function under every module-level binding."""
        for layer, names in TRACED.items():
            home = self.modules[layer]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in self.modules.values():
                    if mod.__dict__.get(fname) is original:
                        self._saved.append((mod, fname, original))
                        setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._saved):
            setattr(mod, fname, original)
        self._saved.clear()

    # --------------------------------------------------------------- metrics

    def _aggregate(self):
        """Per name: calls, inclusive seconds (outermost spans only), self
        seconds; per layer: self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        incl: Counter = Counter()
        self_s: Counter = Counter()
        layer_self: Counter = Counter()
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            calls[name] += 1
            own = dur - child[i]
            self_s[name] += own
            layer_self[name.split(".", 1)[0]] += own
            # a span nested inside a span of the same name is already counted
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                incl[name] += dur
        return calls, incl, self_s, layer_self

    def metrics(self, disc_cache: tuple[int, int]) -> dict[str, float]:
        """Every per-layer metric, by name."""
        calls, incl, self_s, layer_self = self._aggregate()
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        dedup_tests = 0
        dedup_s = 0.0
        classify_spans = []
        for name, start, end, parent, _ in self.spans:
            if name == "enumeration.is_isometric" and parent >= 0 \
                    and self.spans[parent][0] == "classify.classify":
                dedup_tests += 1
                dedup_s += end - start
            elif name == "classify.classify":
                classify_spans.append(end - start)
        hits, misses = disc_cache
        out = {
            "classify.classify.calls": calls["classify.classify"],
            "classify.classify.self_s": self_s["classify.classify"],
            "classify.good_isometries.s": incl["classify.good_isometries"],
            "classify.rows_pre_dedup": c["extend_accepted"],
            "classify.rows_kept": c["rows_kept"],
            "classify.keep_ratio": ratio(c["rows_kept"], c["extend_accepted"]),
            "classify.dedup_isometry_tests": dedup_tests,
            "classify.dedup_s": dedup_s,
            "classify.max_group_share": ratio(max(classify_spans, default=0),
                                              sum(classify_spans)),
            "glue.check_extendable.calls": calls["glue.check_extendable"],
            "glue.check_extendable.s": incl["glue.check_extendable"],
            "glue.check_extendable.self_s": self_s["glue.check_extendable"],
            "glue.extend_accept_ratio": ratio(c["extend_accepted"],
                                              calls["glue.check_extendable"]),
            "glue.divisibility_in_glued.calls":
                calls["glue.divisibility_in_glued"],
            "glue.divisibility_in_glued.s": incl["glue.divisibility_in_glued"],
            "glue.partner_disc_candidates.s":
                incl["glue.partner_disc_candidates"],
            "fqm.anti_embeddings.calls": calls["fqm.anti_embeddings"],
            "fqm.anti_embeddings.s": incl["fqm.anti_embeddings"],
            "fqm.anti_embeddings.found": c["anti_embeddings_found"],
            "fqm.k3sq_glue_admissible.calls": calls["fqm.k3sq_glue_admissible"],
            "fqm.k3sq_glue_admissible.s": incl["fqm.k3sq_glue_admissible"],
            "fqm.admissible_ratio": ratio(c["admissible"],
                                          calls["fqm.k3sq_glue_admissible"]),
            "fqm.admissible_images": len(self.distinct["admissible_images"]),
            "fqm.hom_preimage.calls": calls["fqm.hom_preimage"],
            "fqm.hom_preimage.s": incl["fqm.hom_preimage"],
            "fqm.hom_closure_images.calls": calls["fqm.hom_closure_images"],
            "fqm.hom_closure_images.s": incl["fqm.hom_closure_images"],
            "lattice.disc_map.s": incl["lattice.disc_map"],
            "lattice.disc_map.hit_ratio": ratio(hits, hits + misses),
            "lattice.induced_map.calls": calls["lattice.induced_map"],
            "lattice.induced_map.s": incl["lattice.induced_map"],
            "lattice.induced_map.distinct_ratio": ratio(
                len(self.distinct["induced_map"]),
                calls["lattice.induced_map"]),
            "lattice.invariant_and_coinvariant.s":
                incl["lattice.invariant_and_coinvariant"],
            "enumeration.is_isometric.calls": calls["enumeration.is_isometric"],
            "enumeration.is_isometric.s": incl["enumeration.is_isometric"],
            "enumeration.vectors_of_norm.calls":
                calls["enumeration.vectors_of_norm"],
            "enumeration.vectors_of_norm.s": incl["enumeration.vectors_of_norm"],
            "enumeration.vectors_of_norm.vectors": c["vectors"],
            "enumeration.all_automorphisms.calls":
                calls["enumeration.all_automorphisms"],
            "enumeration.all_automorphisms.s":
                incl["enumeration.all_automorphisms"],
            "enumeration.automorphism_group.s":
                incl["enumeration.automorphism_group"],
            "exact.smith_normal_form.calls": calls["exact.smith_normal_form"],
            "exact.smith_normal_form.s": incl["exact.smith_normal_form"],
            "exact.rational_inverse.calls": calls["exact.rational_inverse"],
            "exact.rational_inverse.s": incl["exact.rational_inverse"],
            "exact.bareiss_det.s": incl["exact.bareiss_det"],
            "exact.multiplicative_order.calls":
                calls["exact.multiplicative_order"],
            "exact.multiplicative_order.s": incl["exact.multiplicative_order"],
            "exact.matrix_closure.s": incl["exact.matrix_closure"],
            "hilb2.obstruction_report.s": incl["hilb2.obstruction_report"],
            "hilb2.ample_model_verdict.s": incl["hilb2.ample_model_verdict"],
            "cli.parse_dataset.s": incl["cli.parse_dataset"],
            "cli.run_table.s": incl["cli.run_table"],
            "cli.format_table.s": incl["cli.format_table"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        out["trace.spans"] = len(self.spans)
        return out

    def work_counters(self) -> dict:
        """Counters that must repeat exactly for the same code and seed."""
        calls, _, _, _ = self._aggregate()
        return {"calls": dict(sorted(calls.items())),
                "counts": dict(sorted(self.counts.items())),
                "by_op": {k: dict(sorted(v.items()))
                          for k, v in sorted(self.by_op.items()) if v}}

    def write(self, path) -> None:
        """Write the spans, one JSON array per line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write('["name","start","end","parent","run_id"]\n')
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
