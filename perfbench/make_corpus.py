"""Regenerate ``report_corpus.json``, the fixed universe of report_mix curves.

    PYTHONPATH=src python3 perfbench/make_corpus.py

Draws UNIVERSE curves from the random_curve distribution (n <= 36, s in
[3, 6]) with a fixed seed and records, for each:

- an upper bound on the letters of its mod-n kernel generators,
  (s-2) n (n-1) |y_1| + n (|y_1| + ... + |y_{s-1}|), from ``y_basis`` (null
  where y_basis exhausted the 1 GiB cap);
- for curves within the benchmark's letter budget, the wall time of one
  ``report`` when the file was made.  It serves only to sort the curves by
  cost, so that the benchmark's walk over them is stratified by cost.

The benchmark samples its report_mix inputs from this table, so the inputs do
not depend on the code under test.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

UNIVERSE = 2000
UNIVERSE_SEED = 20250201


def main() -> None:
    cap = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    from kummercover import cover, schreier
    from workloads import ReportMix, random_curve

    rng = random.Random(UNIVERSE_SEED)
    curves = []
    for _ in range(UNIVERSE):
        n, d = random_curve(rng, 3, 6, 2, 36)
        p = cover.validate(n, d)
        try:
            ys = schreier.y_basis(p)
        except MemoryError:
            letters = None
        else:
            sizes = [sum(abs(e) for _, e in y.syllables) for y in ys]
            letters = (p.s - 2) * p.n * (p.n - 1) * sizes[0] + p.n * sum(sizes)
        millis = None
        if letters is not None and letters <= ReportMix.LETTER_BUDGET:
            op = ReportMix.make_op(n, d)
            start = time.perf_counter()
            op.check(op.call())
            millis = round((time.perf_counter() - start) * 1e3, 3)
        curves.append([letters, millis, n, list(d)])
    with open(os.path.join(HERE, "report_corpus.json"), "w") as fh:
        json.dump({"universe_seed": UNIVERSE_SEED, "distribution":
                   "tests/conftest.py::random_curve with s in [3, 6], n in [2, 36]",
                   "fields": ["kernel_letters_bound", "report_ms_when_made", "n", "d"],
                   "curves": curves}, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
