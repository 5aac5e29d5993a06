"""Traced runs: timing wrappers around cellres's public functions,
installed from outside the package and removed again afterwards.

A span is recorded for every call of a wrapped function: its name, start,
end and the span that was open when it began.  Spans live in flat arrays
in memory and are written out once, when the run ends.  A span's self
time is its duration minus the durations of its child spans; calls run
on one thread and nest strictly, so the children never overlap.

Work counters come from the wrapped calls' arguments and results, never
from edits to the package.  Monomial methods and the small accessors of
the ideal, rule and complex classes are leaf arithmetic called millions
of times: a span there would cost more than the call, so their time is
self time of the calling layer and only Monomial construction is
counted.
"""

import functools
import inspect
import json
from array import array
from time import perf_counter

LAYERS = (
    "monomial",
    "ideals",
    "chain",
    "ekcells",
    "cointerval",
    "betti",
    "exact",
    "rules",
    "poset",
    "export",
    "corpus",
    "cli",
)

# Layers with a self-time metric; corpus runs only during set-up, which
# corpus.gen_s covers.
PASS_LAYERS = tuple(layer for layer in LAYERS if layer != "corpus")

# Methods the workloads reach, traced in addition to every public
# module-level function.
METHODS = {
    "ideals": {
        "OrderedIdeal": (
            "colon_by_generator",
            "linear_quotient_failure",
            "set_table",
            "has_linear_quotients",
        ),
    },
    "chain": {"LabeledChainComplex": ("validate", "betti_by_multidegree")},
    "cointerval": {"HomComplex": ("__init__",)},
}

# Rule classes whose permutations() yields the chain orders build_cell
# tries; the yields are counted, the iteration is the caller's time.
PERMUTATION_RULES = (("chain", "BRule"), ("cointerval", "CRule"), ("rules", "TableRule"))

# Inclusive-time metrics: the summed duration of the outermost spans of
# these functions (a call nested in another of the same group is not
# counted twice).  Groups may overlap; each answers its own question.
STAGES = {
    "chain.resolve_s": (
        "chain.ht_resolution",
        "chain.resolution_from_rule",
        "chain.iterated_cone_resolution",
        "chain.mapping_cone",
        "chain.koszul_complex",
        "chain.symbol_basis",
        "chain.symbol_differential",
    ),
    "chain.check_s": (
        "chain.check_dd_zero",
        "chain.check_minimal",
        "chain.compare_up_to_degree_signs",
        "chain.LabeledChainComplex.validate",
    ),
    "ekcells.build_s": ("ekcells.build_ek_cw", "ekcells.build_cell"),
    "ekcells.facet_check_s": (
        "ekcells.classify_facet",
        "ekcells.affinely_independent",
        "ekcells.cell_is_ball",
    ),
    "cointerval.hom_s": (
        "cointerval.build_hom_complex",
        "cointerval.HomComplex.__init__",
        "cointerval.hom_chain_complex",
        "cointerval.homcone_resolution",
        "cointerval.symbol_of_face",
        "cointerval.face_of_symbol",
    ),
    "betti.lattice_s": ("betti.lcm_lattice",),
    "betti.strand_check_s": ("betti.check_cellular_resolution",),
    "betti.taylor_s": ("betti.multigraded_betti", "betti.taylor_complex"),
    "exact.homology_s": ("exact.homology_ranks", "exact.is_exact"),
    "rules.enumerate_s": ("rules.enumerate_regular_rules",),
    "poset.fingerprint_s": ("poset.complex_fingerprint", "poset.poset_fingerprint"),
    "export.serialize_s": "export",
    "corpus.gen_s": ("corpus.gen_corpus", "corpus.random_linear_quotient_ideals"),
}

# Counted by the hooks in Tracer._hooks and _install_counters;
# betti.strands_checked, trace.spans and ekcells.chain_yield are derived
# from the spans and these counts afterwards.
COUNTERS = (
    "monomial.constructions",
    "ideals.colon_calls",
    "chain.symbols",
    "ekcells.cells",
    "ekcells.perms_enumerated",
    "ekcells.chains_kept",
    "cointerval.hom_cells",
    "betti.lattice_points",
    "betti.taylor_faces",
    "exact.is_exact_calls",
    "exact.prefilter_certified",
    "exact.collapse_settled",
    "exact.rank_calls_q",
    "exact.rank_calls_p",
    "exact.rank_entries",
    "rules.rules_admitted",
    "export.bytes_out",
)


def _entries(rows):
    return len(rows) * len(rows[0]) if rows else 0


class Tracer:
    """Installs span wrappers on the package held by `api`; collects spans
    and counters until reset."""

    def __init__(self, api):
        self.api = api
        self.names = []
        self.layer_of = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._patches = []

    # -- installation ----------------------------------------------------

    def _name_id(self, layer, qualname):
        name = "%s.%s" % (layer, qualname)
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self.name_ids[name]

    def _hooks(self, name):
        """(before, after) callbacks deriving counters from a call."""
        c = self.counts

        def add(key, value):
            c[key] += value

        if name == "ideals.OrderedIdeal.colon_by_generator":
            return None, lambda a, r: add("ideals.colon_calls", 1)
        if name == "chain.resolution_from_rule":
            return None, lambda a, r: add("chain.symbols", sum(r.ranks()))
        if name == "ekcells.build_ek_cw":
            return None, lambda a, r: add("ekcells.cells", len(r.cells))
        if name == "ekcells.build_cell":
            return None, lambda a, r: add("ekcells.chains_kept", len(r.simplices))
        if name == "cointerval.HomComplex.__init__":
            return None, lambda a, r: add("cointerval.hom_cells", len(a[0].cells))
        if name == "betti.lcm_lattice":
            return None, lambda a, r: add("betti.lattice_points", len(r))
        if name in ("betti.multigraded_betti", "betti.taylor_complex"):
            return None, lambda a, r: add("betti.taylor_faces", 2 ** a[0].k - 1)
        if name == "exact.bareiss_rank":
            return None, lambda a, r: (
                add("exact.rank_calls_q", 1),
                add("exact.rank_entries", _entries(a[0])),
            )
        if name == "exact.rank_mod_p":
            return None, lambda a, r: (
                add("exact.rank_calls_p", 1),
                add("exact.rank_entries", _entries(a[0])),
            )
        if name == "exact.is_exact":

            def before(a):
                return c["exact.rank_calls_q"], c["exact.rank_calls_p"]

            def after(a, r, state):
                q0, p0 = state
                add("exact.is_exact_calls", 1)
                if c["exact.rank_calls_q"] == q0:
                    if c["exact.rank_calls_p"] > p0:
                        add("exact.prefilter_certified", 1)
                    else:
                        add("exact.collapse_settled", 1)

            return before, after
        if name == "rules.enumerate_regular_rules":
            return None, lambda a, r: add("rules.rules_admitted", len(r))
        if name.startswith("export."):
            return None, lambda a, r: add(
                "export.bytes_out", len(r.encode()) if isinstance(r, str) else 0
            )
        return None, None

    def _span_wrapper(self, fn, layer, qualname):
        sid_name = self._name_id(layer, qualname)
        before, after = self._hooks(self.names[sid_name])
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(sid_name)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            state = before(args) if before else None
            starts[sid] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if after is not None:
                if before is None:
                    after(args, result)
                else:
                    after(args, result, state)
            return result

        return wrapper

    def _targets(self):
        """(owner, attribute, layer, qualname) of every traced callable."""
        for layer in LAYERS:
            mod = getattr(self.api, layer)
            for attr, obj in sorted(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    yield mod, attr, layer, attr
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for attr in methods:
                    yield cls, attr, layer, "%s.%s" % (cls_name, attr)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for owner, attr, layer, qualname in self._targets():
            original = vars(owner)[attr]
            wrapper = self._span_wrapper(original, layer, qualname)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
            else:
                wrappers[original] = wrapper
        # every namespace that imported a traced function by name
        for mod in self.api.modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        self._install_counters()

    def _install_counters(self):
        c = self.counts
        monomial = self.api.monomial.Monomial
        init = vars(monomial)["__init__"]

        def counted_init(self, exponents):
            c["monomial.constructions"] += 1
            init(self, exponents)

        self._patch(monomial, "__init__", counted_init)
        for layer, cls_name in PERMUTATION_RULES:
            cls = getattr(getattr(self.api, layer), cls_name)
            self._patch(cls, "permutations", self._counting_perms(vars(cls)["permutations"]))

    def _counting_perms(self, perms):
        c = self.counts

        def permutations(rule, j, alpha):
            for sigma in perms(rule, j, alpha):
                c["ekcells.perms_enumerated"] += 1
                yield sigma

        return permutations

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self):
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        for key in self.counts:
            self.counts[key] = 0

    # -- analysis --------------------------------------------------------

    def self_times(self):
        """Self time of every recorded span."""
        n = len(self.span_name)
        child = [0.0] * n
        parents, starts, ends = self.span_parent, self.span_start, self.span_end
        for s in range(n):
            p = parents[s]
            if p >= 0:
                child[p] += ends[s] - starts[s]
        return [ends[s] - starts[s] - child[s] for s in range(n)]

    def stage_seconds(self, stage):
        """Inclusive seconds of the outermost spans of one STAGES group."""
        group = STAGES[stage]
        if isinstance(group, str):
            members = {i for i, name in enumerate(self.names) if name.startswith(group + ".")}
        else:
            members = {self.name_ids[n] for n in group if n in self.name_ids}
        names, parents = self.span_name, self.span_parent
        total = 0.0
        for s in range(len(names)):
            if names[s] not in members:
                continue
            p = parents[s]
            while p >= 0 and names[p] not in members:
                p = parents[p]
            if p < 0:
                total += self.span_end[s] - self.span_start[s]
        return total

    def spans_under(self, name, ancestor):
        """Number of spans of `name` with a span of `ancestor` above them."""
        target = self.name_ids.get(name)
        top = self.name_ids.get(ancestor)
        if target is None or top is None:
            return 0
        names, parents = self.span_name, self.span_parent
        count = 0
        for s in range(len(names)):
            if names[s] != target:
                continue
            p = parents[s]
            while p >= 0 and names[p] != top:
                p = parents[p]
            count += p >= 0
        return count

    def layer_metrics(self):
        """Per-layer self times, stage times and counters of the spans and
        counts recorded since the last reset."""
        out = {}
        for layer in PASS_LAYERS:
            out[layer + ".self_s"] = 0.0
        for s, t in enumerate(self.self_times()):
            key = self.layer_of[self.span_name[s]] + ".self_s"
            if key in out:
                out[key] += t
        for stage in STAGES:
            out[stage] = self.stage_seconds(stage)
        out.update(self.counts)
        out["betti.strands_checked"] = self.spans_under(
            "exact.is_exact", "betti.check_cellular_resolution"
        )
        out["trace.spans"] = len(self.span_name)
        kept, tried = out["ekcells.chains_kept"], out["ekcells.perms_enumerated"]
        out["ekcells.chain_yield"] = kept / tried if tried else 0.0
        return out

    def dump(self, path, meta):
        """Write the recorded spans as JSON: names, then one
        [name, parent, start, end] row per span, times relative to the
        first span."""
        base = self.span_start[0] if len(self.span_start) else 0.0
        rows = [
            [
                self.span_name[s],
                self.span_parent[s],
                round(self.span_start[s] - base, 9),
                round(self.span_end[s] - base, 9),
            ]
            for s in range(len(self.span_name))
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "names": self.names, "spans": rows}, fh)
            fh.write("\n")
