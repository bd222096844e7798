"""Span tracing of kummercover's public functions, from outside the package.

``Tracer.install`` replaces each traced function in every kummercover module
namespace that binds it (``schreier.smith_row`` and ``braid.smith_row`` are the
same object bound twice; ``homology_decomposition`` reaches ``alexander_matrix``
as a module global), so calls between modules go through the wrapper too.
``Tracer.uninstall`` puts the originals back.

Each call records a span (name, start, end, parent span, op id).  Spans stay in
memory; the caller writes them out when the run ends.  Counters that need work
(letters in a word list) run in a child span named ``trace.hook``, so that
layer self times exclude them and the op's spans still add up to its root.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("cli", "schreier", "folding", "homology", "exactlin", "freegroup",
           "braid", "cover")

TRACED = {
    "cli": ("run",),
    "schreier": ("kernel_generators_mod_n", "y_basis", "transversal_reduce"),
    "folding": ("graph_from_words", "rank", "pullback_check", "membership_graph",
                "product_graph"),
    "homology": ("homology_decomposition", "alexander_matrix",
                 "multiplicity_rank_oracle", "chevalley_weil",
                 "multiplicity_closed_form"),
    "exactlin": ("smith_row", "unimodular_inverse", "structured_smith"),
    "freegroup": ("lift_unimodular",),
    "braid": ("lifts_to_kernel",),
    "cover": ("validate",),
}

ROOT = "bench.op"
HOOK = "trace.hook"


def _letters(words) -> int:
    return sum(abs(e) for w in words for _, e in w.syllables)


def _count_gens(tracer, args, kwargs, result):
    tracer.counters["schreier.gen_letters"] += _letters(result.generators)


def _count_fold(tracer, args, kwargs, result):
    words = args[1] if len(args) > 1 else kwargs["words"]
    tracer.counters["folding.fold_in_letters"] += _letters(words)
    tracer.counters["folding.fold_out_vertices"] += result.num_vertices


HOOKS = {
    "schreier.kernel_generators_mod_n": _count_gens,
    "folding.graph_from_words": _count_fold,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []        # (name, start, end, parent, op)
        self.stack: list[int] = []
        self.op = None
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()    # (module, exception type) -> count
        self._patches: list[tuple] = []    # (module, attribute, original, wrapper)

    # -- spans -----------------------------------------------------------------

    def _open(self) -> tuple[int, int | None]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(idx)
        return idx, parent

    def _close(self, idx, parent, name, start) -> None:
        self.stack.pop()
        self.spans[idx] = (name, start, perf_counter(), parent, self.op)

    def begin_op(self, op_id) -> None:
        self.op = op_id
        self._root = self._open()
        self._root_start = perf_counter()

    def end_op(self) -> None:
        self._close(*self._root, ROOT, self._root_start)
        self.op = None

    def _wrap(self, module: str, name: str, fn):
        key = f"{module}.{name}"
        hook = HOOKS.get(key)
        tracer = self

        def traced(*args, **kwargs):
            idx, parent = tracer._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # count an exception once, where it leaves the innermost layer;
                # a mark on the exception, not a reference to it, so that its
                # traceback (and what its frames hold) can be freed
                if not getattr(exc, "_perfbench_counted", False):
                    tracer.errors[(module, type(exc).__name__)] += 1
                    exc._perfbench_counted = True
                raise
            finally:
                tracer._close(idx, parent, key, start)
            if hook is not None:
                hidx, hparent = tracer._open()
                hstart = perf_counter()
                try:
                    hook(tracer, args, kwargs, result)
                finally:
                    tracer._close(hidx, hparent, HOOK, hstart)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = name
        return traced

    # -- patching ----------------------------------------------------------------

    def prepare(self) -> None:
        """Build a wrapper for each traced function and find every binding of it."""
        pkg = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "kummercover" or k.startswith("kummercover."))]
        for module, names in TRACED.items():
            home = sys.modules[f"kummercover.{module}"]
            for name in names:
                orig = getattr(home, name)
                wrapper = self._wrap(module, name, orig)
                for m in pkg:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patches.append((m, attr, orig, wrapper))

    def install(self) -> None:
        if not self._patches:
            self.prepare()
        for m, attr, _, wrapper in self._patches:
            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig, _ in self._patches:
            setattr(m, attr, orig)

    # -- aggregation ---------------------------------------------------------------

    def self_times(self) -> tuple[dict, list]:
        """Self time per span name, and per op (root duration, sum of self times)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        by_name: dict[str, float] = defaultdict(float)
        per_op: dict = defaultdict(lambda: [0.0, 0.0])
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            own = (end - start) - child[i]
            by_name[name] += own
            per_op[op][1] += own
            if parent is None:
                per_op[op][0] += end - start
        return by_name, list(per_op.values())

    def calls(self) -> Counter:
        return Counter(s[0] for s in self.spans)
