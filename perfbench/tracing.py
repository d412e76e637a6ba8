"""Per-layer tracing for the secgroups benchmark, from outside the library.

`Tracer` wraps public functions and methods of the library modules.
A module-level function is rebound at every binding site, that is in every
`secgroups` module that holds it under some name (`crossed` imports
`todd_coxeter`, `models` imports `hom_kernel`, the package re-exports most
names); a method is rebound as a class attribute.  Each call records a span
(name, start, end, parent span, op id) and adds to per-name counters: calls,
exceptions raised, total time and self time (the span minus its child spans).
Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter_ns

# (metric prefix, module under secgroups, function or Class.method)
TARGETS = [
    ("intlinalg.snf", "intlinalg", "smith_normal_form"),
    ("intlinalg.in_lattice", "intlinalg", "in_lattice"),
    ("intlinalg.solve_mod", "intlinalg", "solve_mod"),
    ("abelian.FinAbGroup", "abelian", "FinAbGroup.__init__"),
    ("abelian.AbMap.preimage", "abelian", "AbMap.preimage"),
    ("abelian.AbMap.kernel", "abelian", "AbMap.kernel"),
    ("nil2.Class2Elem.mul", "nil2", "Class2Elem.__mul__"),
    ("nil2.Class2Hom.eval", "nil2", "Class2Hom.eval"),
    ("nil2.nilize", "nil2", "nilize"),
    ("nil2.Subgroup.quotient", "nil2", "Subgroup.quotient"),
    ("nil2.hom_kernel", "nil2", "hom_kernel"),
    ("nil2.hom_cokernel", "nil2", "hom_cokernel"),
    ("tracks.TwoMorphism.eval_word", "tracks", "TwoMorphism.eval_word"),
    ("tracks.interchange_holds", "tracks", "interchange_holds"),
    ("tracks.HopfTrack.validate", "tracks", "HopfTrack.validate"),
    ("tracks.whisker", "tracks", "whisker_left"),
    ("tracks.whisker", "tracks", "whisker_right"),
    ("tracks.whisker", "tracks", "whisker_left2"),
    ("tracks.whisker", "tracks", "whisker_right2"),
    ("tracks.suspend_track", "tracks", "suspend_track"),
    ("crossed.check_axioms", "crossed", "check_axioms"),
    ("crossed.h0", "crossed", "CrossedModule.h0"),
    ("crossed.h0", "crossed", "ReducedQuadraticModule.h0"),
    ("crossed.h1", "crossed", "CrossedModule.h1"),
    ("crossed.h1", "crossed", "ReducedQuadraticModule.h1"),
    ("crossed.CrossMorphism.is_weak_equivalence", "crossed",
     "CrossMorphism.is_weak_equivalence"),
    ("models.wedge_model", "models", "wedge_model"),
    ("models.k_invariant", "models", "k_invariant"),
    ("functors.fiber", "functors", "fiber"),
    ("functors.six_term", "functors", "six_term"),
    ("functors.ad3", "functors", "ad3"),
    ("coset.todd_coxeter", "coset", "todd_coxeter"),
]

# The per-layer metrics, fixed before measuring: (metrics, the end-to-end
# metrics they should move, the workloads they should move them on, the
# workloads where they are predicted unchanged).
WEDGE, MODULE, TRACK, COSET = ("wedge-homotopy", "module-invariants",
                               "track-laws", "coset-orders")
ROWS = [
    (["intlinalg.snf.calls", "intlinalg.snf.self_s",
      "intlinalg.snf.max_cells"],
     "ops_per_s, op_p90_ms", [WEDGE], [TRACK]),
    (["intlinalg.snf.distinct_ratio", "intlinalg.snf.empty_ratio"],
     "ops_per_s", [MODULE], [WEDGE]),
    (["intlinalg.in_lattice.calls", "intlinalg.in_lattice.self_s",
      "intlinalg.solve_mod.calls"],
     "op_p50_ms", [MODULE, TRACK], [COSET]),
    (["abelian.FinAbGroup.calls", "abelian.FinAbGroup.self_s",
      "abelian.AbMap.preimage.calls", "abelian.AbMap.preimage.self_s",
      "abelian.AbMap.kernel.self_s"],
     "op_p90_ms (the k-invariant tail)", [MODULE], [COSET]),
    (["nil2.Class2Elem.mul.calls", "nil2.Class2Hom.eval.calls",
      "nil2.Class2Hom.eval.self_s", "nil2.nilize.calls"],
     "ops_per_s, op_p50_ms", [TRACK], [WEDGE]),
    (["nil2.Subgroup.quotient.self_s", "nil2.hom_kernel.self_s",
      "nil2.hom_cokernel.self_s"],
     "op_p90_ms", [WEDGE], [COSET]),
    (["tracks.TwoMorphism.eval_word.calls", "tracks.interchange_holds.self_s",
      "tracks.HopfTrack.validate.self_s", "tracks.whisker.self_s",
      "tracks.suspend_track.self_s"],
     "op_p90_ms, ops_per_s", [TRACK], [WEDGE]),
    (["crossed.check_axioms.self_s", "crossed.h0.self_s",
      "crossed.h1.self_s", "crossed.CrossMorphism.is_weak_equivalence.self_s"],
     "op_p50_ms", [MODULE, WEDGE], [COSET]),
    (["models.wedge_model.self_s", "models.k_invariant.self_s",
      "functors.fiber.self_s", "functors.six_term.self_s",
      "functors.ad3.self_s"],
     "ops_per_s", [MODULE], [TRACK]),
    (["coset.todd_coxeter.calls", "coset.todd_coxeter.self_s",
      "coset.useful_s_ratio"],
     "ops_per_s, refused_ratio", [COSET],
     [WEDGE, MODULE, TRACK]),
]

# Names that a workload of their ROWS entry never calls, by design of its
# ops: the wedge op asks for no weak equivalence, and the six-term sequence
# reads h0 and h1 off the boundary through hom_cokernel and hom_kernel.
NOT_CALLED = {("crossed.CrossMorphism.is_weak_equivalence", WEDGE),
              ("crossed.h0", MODULE), ("crossed.h1", MODULE)}


def expected_calls(workload):
    """Metric prefixes that must record calls on a workload."""
    out = []
    for metrics, _, on, _ in ROWS:
        if workload not in on:
            continue
        for metric in metrics:
            prefix = metric.rsplit(".", 1)[0]
            if prefix in {t[0] for t in TARGETS} and \
                    (prefix, workload) not in NOT_CALLED \
                    and prefix not in out:
                out.append(prefix)
    return out


class SnfStats:
    """Inputs of smith_normal_form: distinct, empty and largest shape,
    overall and per op kind."""

    def __init__(self):
        self.seen = set()
        self.empty = 0
        self.max_shape = (0, 0)
        self.by_kind = {}  # kind -> [calls, empty, distinct set, max shape]

    def record(self, kind, a, ncols, *_, **__):
        key = hash((ncols, tuple(map(tuple, a))))
        rows = len(a)
        empty = rows == 0 or ncols == 0
        self.seen.add(key)
        self.empty += empty
        if rows * ncols > self.max_shape[0] * self.max_shape[1]:
            self.max_shape = (rows, ncols)
        k = self.by_kind.setdefault(kind, [0, 0, set(), (0, 0)])
        k[0] += 1
        k[1] += empty
        k[2].add(key)
        if rows * ncols > k[3][0] * k[3][1]:
            k[3] = (rows, ncols)


class Tracer:
    """Spans and counters for the wrapped library functions."""

    def __init__(self):
        self.prefixes = []          # name id -> metric prefix
        self.stats = []             # name id -> [calls, exc, self, total, ok]
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack = []             # [span index, start, child time]
        self.op_id = -1
        self.op_kinds = []
        self.snf = SnfStats()
        self.patches = self._bind()

    # -- ops -------------------------------------------------------------

    def begin_op(self, kind):
        self.op_kinds.append(kind)
        self.op_id = len(self.op_kinds) - 1

    # -- wrapping ----------------------------------------------------------

    def _name_id(self, prefix):
        if prefix not in self.prefixes:
            self.prefixes.append(prefix)
            self.stats.append([0, 0, 0, 0, 0])
        return self.prefixes.index(prefix)

    def wrap(self, prefix, fn, pre=None):
        nid = self._name_id(prefix)
        st = self.stats[nid]
        stack = self.stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, op_ids = self.span_parent, self.span_op

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                t = perf_counter_ns()
                pre(*args, **kwargs)
                if stack:  # keep the bookkeeping out of the parent's self time
                    stack[-1][2] += perf_counter_ns() - t
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            op_ids.append(self.op_id)
            ends.append(0)
            frame = [idx, perf_counter_ns(), 0]
            starts.append(frame[1])
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                ends[idx] = end
                dur = end - frame[1]
                st[0] += 1
                st[2] += dur - frame[2]
                st[3] += dur
                if ok:
                    st[4] += dur
                else:
                    st[1] += 1
                if stack:
                    stack[-1][2] += dur
        return wrapper

    def _bind(self):
        """(object, attribute, original, wrapper) for every binding site of
        every target."""
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "secgroups" or name.startswith("secgroups.")]
        patches = []
        for prefix, modname, attr in TARGETS:
            mod = sys.modules["secgroups." + modname]
            pre = None
            if prefix == "intlinalg.snf":
                pre = lambda *a, **kw: self.snf.record(
                    self.op_kinds[self.op_id], *a, **kw)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                patches.append((cls, meth, orig,
                                self.wrap(prefix, orig, pre)))
                continue
            orig = getattr(mod, attr)
            wrapper = self.wrap(prefix, orig, pre)
            for m in mods:
                for name, value in vars(m).items():
                    if value is orig:
                        patches.append((m, name, orig, wrapper))
        return patches

    def install(self):
        for obj, name, _, wrapper in self.patches:
            setattr(obj, name, wrapper)

    def uninstall(self):
        for obj, name, orig, _ in self.patches:
            setattr(obj, name, orig)

    # -- results -----------------------------------------------------------

    def counts(self, prefix):
        """(calls, exceptions, self ns, total ns, total ns of calls that
        returned) for a metric prefix; zeros if never wrapped."""
        if prefix not in self.prefixes:
            return (0, 0, 0, 0, 0)
        return tuple(self.stats[self.prefixes.index(prefix)])

    def metrics(self):
        """Every per-layer metric the tracer measures, by name."""
        out = {}
        for prefix in self.prefixes:
            calls, _, self_ns, _, _ = self.counts(prefix)
            out[prefix + ".calls"] = calls
            out[prefix + ".self_s"] = self_ns / 1e9
        calls = self.counts("intlinalg.snf")[0]
        rows, cols = self.snf.max_shape
        out["intlinalg.snf.max_rows"] = rows
        out["intlinalg.snf.max_cols"] = cols
        out["intlinalg.snf.max_cells"] = rows * cols
        out["intlinalg.snf.distinct_ratio"] = (
            len(self.snf.seen) / calls if calls else 0.0)
        out["intlinalg.snf.empty_ratio"] = (
            self.snf.empty / calls if calls else 0.0)
        _, refused, _, total, answered = self.counts("coset.todd_coxeter")
        out["coset.todd_coxeter.refused"] = refused
        out["coset.useful_s_ratio"] = answered / total if total else 0.0
        out["trace.spans"] = len(self.span_name)
        return out

    def write_spans(self, path):
        """One tab-separated line per span: name, start ns, end ns, parent
        span index (-1 at an op's top level), op id."""
        with open(path, "w") as f:
            f.write("name\tstart_ns\tend_ns\tparent\top\n")
            names = self.prefixes
            for i in range(len(self.span_name)):
                f.write("%s\t%d\t%d\t%d\t%d\n" % (
                    names[self.span_name[i]], self.span_start[i],
                    self.span_end[i], self.span_parent[i], self.span_op[i]))
