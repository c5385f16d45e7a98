"""Pass counts of the frontier solver on a fixed stress set of random channels.

    PYTHONPATH=src python tests/stress_passes.py [--specs N]

Spec i of the set is drawn by the loop `rng = np.random.default_rng(3)`;
per spec `sizes = rng.integers(2, 5, size=4)` (|X|, |S|, |Y|, |Z| from 2 to
4), then `random_spec(np.random.default_rng(int(rng.integers(2**32))),
*sizes)`.  Each spec is swept over the CLI's `auto` mu grid at B = inf and
at the 0.3 and 0.7 quantiles of its cost vector.  The script prints the
finite-mu rows, their summed passes, a histogram of the pass counts, the
largest count (with its spec, budget and mu), the uncertified rows and the
wall time of the sweeps, and exits 1 if any row is uncertified or takes
more than MAX_PASSES = 64 passes (a stalled row).  pytest does not collect
it: it is a measurement, not a test.
"""

import argparse
import collections
import sys
import time

import numpy as np

from capdist import cli, solver
from random_specs import random_spec

QUANTILES = (0.3, 0.7)
MAX_PASSES = 64     # a row above it stalled: the polish runs at passes 4, 8, ..., 64


def stress_specs(n):
    rng = np.random.default_rng(3)
    for _ in range(n):
        sizes = rng.integers(2, 5, size=4)
        yield random_spec(np.random.default_rng(int(rng.integers(2**32))), *sizes)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--specs", type=int, default=200, help="specs of the set (default 200)")
    args = ap.parse_args(argv)
    grid = cli._parse_mu_grid("auto")
    passes, uncertified, largest = [], [], (0, None)
    started = time.perf_counter()
    for i, spec in enumerate(stress_specs(args.specs)):
        for budget in (np.inf, *(float(np.quantile(spec.cost, q)) for q in QUANTILES)):
            for p in solver.sweep_frontier(spec, budget, grid):
                if not np.isfinite(p.mu):
                    continue
                passes.append(p.iterations)
                if not p.converged:
                    uncertified.append((i, budget, p.mu, p.gap))
                if p.iterations > largest[0]:
                    largest = (p.iterations, (i, budget, p.mu))
    wall = time.perf_counter() - started
    stalled = sum(n > MAX_PASSES for n in passes)
    print(f"specs {args.specs}, rows {len(passes)}, passes {sum(passes)}, "
          f"uncertified {len(uncertified)}, above {MAX_PASSES} passes {stalled}, "
          f"wall {wall:.2f} s")
    if largest[1] is not None:
        i, budget, mu = largest[1]
        print(f"largest {largest[0]} passes: spec {i}, budget {budget:.6g}, mu {mu:.6g}")
    # bin k holds the counts in (2**(k-1), 2**k]: polishes run at powers of 2
    bins = collections.Counter(int(np.ceil(np.log2(n))) for n in passes)
    print(f"{'passes':>11} {'rows':>6}")
    for k in sorted(bins):
        lo, hi = 2 ** (k - 1) + 1 if k else 1, 2 ** k
        print(f"{str(hi) if lo == hi else f'{lo}-{hi}':>11} {bins[k]:>6}")
    for i, budget, mu, gap in uncertified:
        print(f"uncertified: spec {i}, budget {budget:.6g}, mu {mu:.6g}, gap {gap:.3g}")
    return 1 if uncertified or stalled else 0


if __name__ == "__main__":
    sys.exit(main())
