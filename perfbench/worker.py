"""One benchmark workload in a fresh Python process.

    python3 perfbench/worker.py --workload NAME --seed N --out-dir DIR
                                --mode setup|once|traced|paired [--seconds S]

run.py starts this with PYTHONPATH pointing at the checkout's `src/` and the
BLAS pools at one thread.  The worker imports capdist, builds the workload's
inputs from the seed and prints `ready`; that is the end of set-up.  Then:

- setup:  nothing more.
- once:   one job, untraced.
- traced: one job with the library's public functions wrapped (see
  install_tracing); the per-layer metrics come from its spans.
- paired: one job (warm-up; peak RSS is read after it), then the pinned
  reference copy of the library (ref/capdist_ref) is imported and the job is
  repeated for about `--seconds` in cycles.  In each cycle every step of the
  job runs once on the checkout's capdist and once on the reference, back to
  back, in alternating order; a cycle's ratio is the checkout's time over
  the reference's (see paired_ratio).

Every job on the checkout's capdist is checked by value, and its exact
counts must equal the first job's.  The last line of output is one JSON
object with the job times, ratios, checks, counts and, when traced, the
per-layer metrics.
"""

import argparse
import csv
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = "capdist_ref"     # capdist at the commit that pinned the benchmark

# random-small: the two-input channels among the 16 random channels of
# acceptance criterion 6 (generator seed 0), relabelled by the seed
# (relabelling leaves every frontier value unchanged, so each seed costs the
# same work on different arrays).  The three-input channels carry the heavy
# tail of the cost (0.4 s to 17 s per channel here), too long for a run.
PANEL_SEED = 0
PANEL_DRAWS = 16
D_FRACTIONS = (0.25, 0.5, 1.0)
ORACLE_STEP = 1e-2
EST_TOL = 1e-12
CURVE_TOL = 2e-3

# gaussian: the paper's quantized fading channel on a 200-state grid, where
# each (X, S*Y) float64 tensor is 3.4 MB, more than a 2 MB L2.  The paper's
# anchors (1.213 bits, 0.367 at mu = 0) hold on finer grids (acceptance
# criterion 3); on this grid the mu = 0 row reads 1.2670 bits and 0.3949,
# which the check pins to 1e-3.  The 2-PAM point is checked against its
# analytic value with the criterion-3 tolerances on a 1000-state grid, where
# it holds.
GAUSS_STATE_POINTS = 100
PAM_STATE_POINTS = 500
GAUSS_BUDGET = 10.0
GAUSS_RATE, GAUSS_DIST, GAUSS_PIN_TOL = 1.2670, 0.3949, 1e-3
PAM_RATE_TOL, PAM_DIST_TOL = 0.02, 0.01
THREAD_MU_GRID = [0.0, 1.0]  # two solves, so threads=2 can run them at once

# bc-regions: CLI region sizes and the Dueck anchors of criterion 4
BC_RESOLUTION = 16          # |U| = |X| + 1 = 3 auxiliary symbols
DUECK_RESOLUTION = 5
DUECK_Q = 0.75
DUECK_AUX_PANEL = 12        # identity, constant and ten random P(U|X)
DUECK_ANCHORS = ((5 / 32, 1.0), (11 / 64, 1.5625))
HULL_POINTS = 2001


def load(package):
    """Import a copy of the library with the submodules the workloads use."""
    lib = importlib.import_module(package)
    importlib.import_module(package + ".cli")
    return lib


class Workload:
    """Steps on inputs built from the seed, their checks and exact counts.

    `lib` is the library package the inputs are built with and the steps
    call; every call goes through a module attribute (`lib.solver.x(...)`),
    so that tracing sees it.
    """

    def steps(self):
        """The job as a list of calls; a job's output is their results."""
        raise NotImplementedError

    def job(self):
        return [step() for step in self.steps()]

    def diagnostics(self, out):
        """Values computed by the checks that the traced run also reports."""
        return {}


class Checks:
    """Checked operations: how many were attempted and which failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class RandomSmall(Workload):
    """Small random channels: estimator, two frontier sweeps and the oracle."""

    def __init__(self, lib, seed, out_dir):
        import numpy as np
        self.lib = lib
        self.grid = [0.0] + list(np.logspace(-3.0, 3.0, 40))   # CLI `auto`
        panel = np.random.default_rng(PANEL_SEED)
        relabel = np.random.default_rng(seed)
        self.inputs = []
        for _ in range(PANEL_DRAWS):
            # the draws of tests/test_acceptance.py::random_spec, in order
            nx, ns, ny, nz = (int(v) for v in panel.integers(2, 4, size=4))
            state = panel.dirichlet(np.ones(ns))
            law = panel.dirichlet(np.ones(ny * nz),
                                  size=(nx, ns)).reshape(nx, ns, ny, nz)
            dist = panel.random((ns, ns))
            np.fill_diagonal(dist, 0.0)
            cost = panel.random(nx)
            if nx != 2:
                continue
            px, ps, py, pz = (relabel.permutation(n) for n in law.shape)
            spec = lib.channel.SdmcSpec(state_pmf=state[ps],
                                        law=law[np.ix_(px, ps, py, pz)],
                                        distortion=dist[np.ix_(ps, ps)],
                                        cost=cost[px])
            self.inputs.append((spec, relabel.dirichlet(np.ones(nx))))

    def steps(self):
        # four steps per channel, so that the paired run alternates often;
        # `state` carries the budgeted sweep to the oracle step
        steps = []
        for spec, p_x in self.inputs:
            state = {}
            steps += [lambda spec=spec, p_x=p_x: self.estimator_gap(spec, p_x),
                      lambda spec=spec: self.sweep(spec, None, {}),
                      lambda spec=spec, state=state: self.sweep(spec, 0.7, state),
                      lambda spec=spec, state=state: self.oracle_gaps(spec, state)]
        return steps

    def estimator_gap(self, spec, p_x):
        estimator = self.lib.estimator
        est = estimator.build_estimator(spec)
        _, best = self.lib.verify.exhaustive_estimator_search(spec, p_x)
        return abs(estimator.expected_distortion(est, p_x) - best)

    def sweep(self, spec, cost_quantile, state):
        """The frontier at B = inf, or at a quantile of the input costs."""
        import numpy as np
        budget = (np.inf if cost_quantile is None
                  else float(np.quantile(spec.cost, cost_quantile)))
        state["budget"] = budget
        state["points"] = self.lib.solver.sweep_frontier(spec, budget, self.grid)
        return state["points"]

    def oracle_gaps(self, spec, state):
        """|envelope - oracle| at three D caps, as acceptance criterion 6."""
        lib, budget = self.lib, state["budget"]
        dmin, _ = lib.estimator.d_min(spec, budget)
        dmax = lib.estimator.d_trivial(spec)
        curve = lib.bcregions.upper_concave_hull(
            [(p.distortion, p.rate) for p in state["points"]])
        gaps = []
        for frac in D_FRACTIONS:
            d_cap = dmin + frac * (dmax - dmin)
            value, _ = lib.verify.brute_force_tradeoff(spec, d_cap, budget,
                                                       ORACLE_STEP)
            gaps.append(abs(lib.bcregions.envelope_value(curve, d_cap) - value))
        return gaps

    def channels(self, out):
        """(spec, estimator gap, solved points, oracle gaps) per channel."""
        return [(spec, out[4 * i], out[4 * i + 1] + out[4 * i + 2], out[4 * i + 3])
                for i, (spec, _) in enumerate(self.inputs)]

    def check(self, out, checks):
        for i, (_, est_gap, points, gaps) in enumerate(self.channels(out)):
            checks.expect(est_gap <= EST_TOL,
                          f"channel {i}: estimator gap {est_gap:.3g}")
            for p in points:
                if math.isfinite(p.mu):
                    checks.expect(p.converged,
                                  f"channel {i}: mu={p.mu:g} B={p.budget:g} "
                                  f"not converged")
            for frac, gap in zip(D_FRACTIONS, gaps):
                checks.expect(gap <= CURVE_TOL,
                              f"channel {i}: |envelope - oracle| = {gap:.3g} "
                              f"at D fraction {frac}")

    def counts(self, out):
        channels = self.channels(out)
        solved = [p for _, _, pts, _ in channels for p in pts if math.isfinite(p.mu)]
        k = round(1.0 / ORACLE_STEP)
        return {"solver.solves": len(solved),
                "solver.iterations": sum(p.iterations for p in solved),
                "verify.oracle_points": sum(
                    len(D_FRACTIONS) * math.comb(k + spec.input_size - 1,
                                                 spec.input_size - 1)
                    for spec, _, _, _ in channels)}

    def diagnostics(self, out):
        return {"verify.oracle_gap_max": max(g for *_, gaps in self.channels(out)
                                             for g in gaps)}


class Gaussian(Workload):
    """The CLI frontier on the quantized fading Gaussian, plus the 2-PAM anchor.

    The instance is the paper's, pinned by its anchors, so the seed does not
    change it.
    """

    def __init__(self, lib, seed, out_dir):
        self.lib = lib
        self.cfg = lib.examples.GaussianQuantConfig(state_points=GAUSS_STATE_POINTS)
        self.pam_cfg = lib.examples.GaussianQuantConfig(state_points=PAM_STATE_POINTS)
        self.out = str(out_dir / "gaussian.csv")
        self.argv = ["tradeoff", "--builtin",
                     f"gaussian,state_points={GAUSS_STATE_POINTS}",
                     "--budget", repr(GAUSS_BUDGET), "--mu-grid", "0:0:1",
                     "--out", self.out]

    def steps(self):
        return [lambda: self.lib.cli.main(self.argv), self.two_pam]

    def two_pam(self):
        examples = self.lib.examples
        spec = examples.gaussian_quantized_spec(self.pam_cfg)
        rate, dist, pmf = examples.gaussian_two_pam_point(spec, GAUSS_BUDGET)
        amp = max(abs(v) for v, w in zip(spec.labels["x_values"], pmf) if w > 0)
        return (rate, dist), examples.gaussian_two_pam_analytic(amp)

    def _rows(self, rc):
        if rc != 0:
            return []
        with open(self.out, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    def check(self, out, checks):
        rc, ((r2, d2), (r2_ref, d2_ref)) = out
        checks.expect(rc == 0, f"tradeoff exit code {rc}")
        zero = [r for r in self._rows(rc) if float(r["mu"]) == 0.0]
        checks.expect(len(zero) == 1, f"{len(zero)} rows with mu=0")
        if zero:
            rate, dist = float(zero[0]["rate_bits"]), float(zero[0]["distortion"])
            checks.expect(abs(rate - GAUSS_RATE) <= GAUSS_PIN_TOL,
                          f"mu=0 rate {rate:.4f}, expected {GAUSS_RATE}")
            checks.expect(abs(dist - GAUSS_DIST) <= GAUSS_PIN_TOL,
                          f"mu=0 distortion {dist:.4f}, expected {GAUSS_DIST}")
        checks.expect(abs(r2 - r2_ref) <= PAM_RATE_TOL,
                      f"2-PAM rate {r2:.4f} vs analytic {r2_ref:.4f}")
        checks.expect(abs(d2 - d2_ref) <= PAM_DIST_TOL,
                      f"2-PAM distortion {d2:.4f} vs analytic {d2_ref:.4f}")

    def counts(self, out):
        rc = out[0]
        finite = [r for r in self._rows(rc) if math.isfinite(float(r["mu"]))]
        return {"solver.solves": len(finite),
                "solver.iterations": sum(int(r["iterations"]) for r in finite),
                "cli.output_bytes": os.path.getsize(self.out) if rc == 0 else 0}


class BcRegions(Workload):
    """CLI broadcast regions (binary BC degraded, Dueck outer) and Dueck hulls."""

    def __init__(self, lib, seed, out_dir):
        import numpy as np
        self.lib = lib
        u = np.random.default_rng(seed).random(2)
        self.q = round(0.55 + 0.1 * float(u[0]), 3)
        self.gamma = round(0.4 + 0.2 * float(u[1]), 3)
        self.degraded = str(out_dir / "degraded.csv")
        self.outer = str(out_dir / "outer.csv")
        self.argv_degraded = ["bc", "degraded", "--builtin",
                              f"binary-bc,q={self.q},gamma={self.gamma}",
                              "--resolution", str(BC_RESOLUTION),
                              "--out", self.degraded]
        self.argv_outer = ["bc", "outer", "--builtin", f"dueck,q={DUECK_Q}",
                           "--resolution", str(DUECK_RESOLUTION),
                           "--seed", str(seed), "--out", self.outer]
        self.t_grid = np.linspace(0.0, 1.0, HULL_POINTS)

    def steps(self):
        return [lambda: self.lib.cli.main(self.argv_degraded),
                lambda: self.lib.cli.main(self.argv_outer), self.hulls]

    def hulls(self):
        bcregions = self.lib.bcregions
        _, inner = bcregions.dueck_inner(DUECK_Q, self.t_grid)
        outer = bcregions.upper_concave_hull(
            [(s.d1, s.r0) for s in bcregions.dueck_outer(DUECK_Q, self.t_grid)])
        anchors = [(d, r, bcregions.envelope_value(hull, d))
                   for hull in (inner, outer) for d, r in DUECK_ANCHORS]
        exact = (bcregions.dueck_dmin(DUECK_Q), bcregions.dueck_distortion(DUECK_Q, 0.5))
        return anchors, exact

    def _d_columns(self):
        with open(self.degraded, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
            i1, i2 = header.index("d1"), header.index("d2")
            return [(float(c[i1]), float(c[i2]))
                    for c in (line.split(",") for line in fh)]

    @staticmethod
    def _rows(path):
        with open(path, "rb") as fh:
            return sum(1 for _ in fh) - 1

    def check(self, out, checks):
        rc_degraded, rc_outer, (anchors, (dmin, dist_half)) = out
        checks.expect(rc_degraded == 0, f"bc degraded exit code {rc_degraded}")
        checks.expect(rc_outer == 0, f"bc outer exit code {rc_outer}")
        if rc_degraded == 0:
            # |U| * |X| = 6 lattice coordinates summing to the resolution
            want = math.comb(BC_RESOLUTION + 5, 5)
            got = self._rows(self.degraded)
            checks.expect(got == want, f"bc degraded: {got} rows, expected {want}")
            # binary BC closed form: both distortions are P(X=0) times the
            # per-receiver feedback-blind error
            q, g = self.q, self.gamma
            ratio = min(g * q, 1.0 - g * q) / min(q, 1.0 - q)
            worst = max(abs(d2 - ratio * d1) for d1, d2 in self._d_columns())
            checks.expect(worst <= 1e-9,
                          f"bc degraded: |d2 - {ratio:.6g} d1| reaches {worst:.3g}")
        if rc_outer == 0:
            # |X| = 8 Dueck inputs, one row per lattice pmf and auxiliary channel
            want = math.comb(DUECK_RESOLUTION + 7, 7) * DUECK_AUX_PANEL
            got = self._rows(self.outer)
            checks.expect(got == want, f"bc outer: {got} rows, expected {want}")
        for d, want, got in anchors:
            checks.expect(abs(got - want) <= 1e-4,
                          f"Dueck envelope at D={d:.6g}: {got:.6g}, expected {want}")
        checks.expect(dmin == 5 / 32, f"Dueck D_min {dmin!r}, expected 5/32")
        checks.expect(dist_half == 11 / 64,
                      f"Dueck distortion at t=1/2 {dist_half!r}, expected 11/64")

    def counts(self, out):
        if out[0] != 0 or out[1] != 0:
            return {}
        return {"bcregions.samples": self._rows(self.degraded) + self._rows(self.outer),
                "cli.output_bytes": os.path.getsize(self.degraded)
                + os.path.getsize(self.outer)}


WORKLOADS = {"random-small": RandomSmall, "gaussian": Gaussian,
             "bc-regions": BcRegions}


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def install_tracing(tracer, lib):
    import numpy as np
    bcregions, channel, cli = lib.bcregions, lib.channel, lib.cli
    estimator, examples, solver, verify = (lib.estimator, lib.examples,
                                           lib.solver, lib.verify)

    # cli.main, solve_fixed_mu (called by sweep_frontier) and
    # brute_force_tradeoff receive these arguments positionally
    def out_bytes(args, kwargs, rc):
        argv = args[0]
        return {"bytes": os.path.getsize(argv[argv.index("--out") + 1]) if rc == 0 else 0}

    def solve_attrs(args, kwargs, pt):
        spec, cfg = args[:2]
        binding = bool(np.isfinite(cfg.budget)
                       and np.max(np.asarray(spec.cost, float)) > cfg.budget)
        return {"iterations": pt.iterations, "converged": bool(pt.converged),
                "binding": binding}

    def lattice_attrs(args, kwargs, result):
        nx, k = args[0].input_size, round(1.0 / args[3])
        return {"points": math.comb(k + nx - 1, nx - 1)}

    def n_samples(args, kwargs, result):
        return {"samples": len(result)}

    tracer.wrap(cli, "main", out_bytes)
    for name in ("gaussian_quantized_spec", "binary_bc_spec", "dueck_bc_spec"):
        tracer.wrap(examples, name)
    tracer.wrap(channel, "spec_to_dict")
    tracer.wrap(estimator, "build_estimator")
    tracer.wrap(estimator, "d_min")
    tracer.wrap(solver, "sweep_frontier")
    tracer.wrap(solver, "solve_fixed_mu", solve_attrs)
    tracer.wrap(verify, "brute_force_tradeoff", lattice_attrs)
    tracer.wrap(verify, "exhaustive_estimator_search")
    tracer.wrap(bcregions, "is_physically_degraded")
    tracer.wrap(bcregions, "degraded_region", n_samples)
    tracer.wrap(bcregions, "outer_bound_samples", n_samples)
    for name in ("dueck_inner", "dueck_outer", "upper_concave_hull",
                 "envelope_value"):
        tracer.wrap(bcregions, name)


HULL_SPANS = {"bcregions.dueck_inner", "bcregions.dueck_outer",
              "bcregions.upper_concave_hull", "bcregions.envelope_value"}
SPEC_SPANS = {"examples.gaussian_quantized_spec", "examples.binary_bc_spec",
              "examples.dueck_bc_spec"}


def layer_metrics(tracer):
    """Per-layer times and counts from the recorded spans."""
    spans, own = tracer.spans, tracer.self_times()

    def dur(label):
        return sum(e - s for n, s, e, _, _ in spans if n == label)

    def self_sum(labels):
        return sum(t for (n, *_), t in zip(spans, own) if n in labels)

    def attrs(label):
        return [a for n, _, _, _, a in spans if n == label]

    solves = [(e - s, a) for n, s, e, _, a in spans if n == "solver.solve_fixed_mu"]

    def per_iter_us(keep):
        chosen = [(t, a["iterations"]) for t, a in solves if keep(a)]
        iters = sum(i for _, i in chosen)
        return 1e6 * sum(t for t, _ in chosen) / iters if iters else 0.0

    return {
        "examples.spec_build_s": self_sum(SPEC_SPANS),
        "channel.spec_to_dict_s": dur("channel.spec_to_dict"),
        "cli.self_s": self_sum({"cli.main"}),
        "cli.output_bytes": sum(a["bytes"] for a in attrs("cli.main")),
        "estimator.build_s": dur("estimator.build_estimator"),
        "estimator.calls": len(attrs("estimator.build_estimator")),
        "solver.solves": len(solves),
        "solver.iterations": sum(a["iterations"] for _, a in solves),
        "solver.iterations_max": max((a["iterations"] for _, a in solves), default=0),
        "solver.unconverged": sum(not a["converged"] for _, a in solves),
        "solver.solve_s": sum(t for t, _ in solves),
        "solver.iter_us": per_iter_us(lambda a: True),
        "solver.iter_us_binding": per_iter_us(lambda a: a["binding"]),
        "solver.iter_us_free": per_iter_us(lambda a: not a["binding"]),
        "solver.sweep_self_s": self_sum({"solver.sweep_frontier"}),
        "verify.oracle_s": dur("verify.brute_force_tradeoff"),
        "verify.oracle_points": sum(a["points"] for a in attrs("verify.brute_force_tradeoff")),
        "verify.estimator_search_s": dur("verify.exhaustive_estimator_search"),
        "bcregions.degraded_s": dur("bcregions.degraded_region"),
        "bcregions.outer_s": dur("bcregions.outer_bound_samples"),
        "bcregions.degradedness_s": dur("bcregions.is_physically_degraded"),
        "bcregions.samples": sum(a["samples"] for n in ("bcregions.degraded_region",
                                                        "bcregions.outer_bound_samples")
                                 for a in attrs(n)),
        "bcregions.hull_s": self_sum(HULL_SPANS),
    }


def thread2_speedup(workload):
    """A two-penalty sweep with threads=1 against the same with threads=2."""
    lib = workload.lib
    spec = lib.examples.gaussian_quantized_spec(workload.cfg)
    took = []
    for threads in (1, 2):
        t0 = time.perf_counter()
        lib.solver.sweep_frontier(spec, GAUSS_BUDGET, THREAD_MU_GRID, threads=threads)
        took.append(time.perf_counter() - t0)
    return took[0] / took[1]


def versions():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

class Runner:
    """Runs and checks jobs of one workload; the exact counts must repeat."""

    def __init__(self, workload):
        self.workload = workload
        self.checks = Checks()
        self.counts = None
        self.diagnostics = {}

    def record(self, out):
        w = self.workload
        w.check(out, self.checks)
        counts = w.counts(out)
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            sys.exit(f"exact counts differ between two jobs on the same inputs: "
                     f"{self.counts} then {counts}")
        for key, value in w.diagnostics(out).items():
            self.diagnostics[key] = max(value, self.diagnostics.get(key, value))

    def timed_job(self):
        t0 = time.perf_counter()
        out = self.workload.job()
        took = time.perf_counter() - t0
        self.record(out)
        return took


def paired_ratio(cycles):
    """The checkout's time over the reference's, from (mine, ref) per cycle.

    Even and odd cycles run each step in opposite orders, and the side that
    runs second can be faster (it reuses memory the first one freed), so the
    ratio is the geometric mean of the median ratios of the two kinds.
    """
    ratios = [mine / ref for mine, ref in cycles]
    kinds = [statistics.median(ratios[k::2]) for k in (0, 1) if ratios[k::2]]
    return math.prod(kinds) ** (1.0 / len(kinds))


def paired_cycles(runner, ref, seconds, started):
    """Alternate the checkout's and the reference's steps until the window ends.

    Returns per cycle (checkout seconds, reference seconds).
    """
    def timed(step):
        # each side starts from an empty young generation, so that a garbage
        # collection the other side's leftovers would trigger does not land
        # in its time; the objects that live through the run are frozen, so
        # this collection is short
        gc.collect()
        t0 = time.perf_counter()
        result = step()
        return result, time.perf_counter() - t0

    gc.freeze()
    cycles = []
    mine_steps, ref_steps = runner.workload.steps(), ref.steps()
    while True:
        out, t_mine, t_ref = [], 0.0, 0.0
        for i, (mine, theirs) in enumerate(zip(mine_steps, ref_steps)):
            # alternate which side goes first, by step and by cycle
            mine_first = (len(cycles) + i) % 2 == 0
            if not mine_first:
                t_ref += timed(theirs)[1]
            result, took = timed(mine)
            out.append(result)
            t_mine += took
            if mine_first:
                t_ref += timed(theirs)[1]
        runner.record(out)
        cycles.append((t_mine, t_ref))
        # start another cycle only if it ends at most half a cycle past the window
        if (time.perf_counter() - started
                + statistics.median(a + b for a, b in cycles) / 2 > seconds):
            return cycles


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "once", "traced", "paired"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--out-dir", type=Path, required=True)
    args = ap.parse_args()

    started = time.perf_counter()
    lib = load("capdist")
    import_s = time.perf_counter() - started
    src = (ROOT / "src").resolve()
    if Path(lib.__file__).resolve().parent.parent != src:
        sys.exit(f"capdist imported from {lib.__file__}, not from {src}")
    workload = WORKLOADS[args.workload](lib, args.seed, args.out_dir)
    print("ready", flush=True)
    if args.mode == "setup":
        return

    runner = Runner(workload)
    tracer = None
    if args.mode == "traced":
        from spans import Tracer
        tracer = Tracer()
        install_tracing(tracer, lib)
    times = [runner.timed_job()]
    # the peak so far is the checkout's alone: the reference is not loaded yet
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"run_s": times}
    if args.mode == "paired":
        sys.path.insert(0, str(HERE / "ref"))
        ref_dir = args.out_dir / "ref"
        ref_dir.mkdir(exist_ok=True)
        ref = WORKLOADS[args.workload](load(REFERENCE), args.seed, ref_dir)
        cycles = paired_cycles(runner, ref, args.seconds, started)
        result = {"run_s": [a for a, _ in cycles], "ref_s": [b for _, b in cycles],
                  "ratio": paired_ratio(cycles)}
    if tracer is not None:
        tracer.remove()
        layers = layer_metrics(tracer)
        layers["capdist.import_s"] = import_s
        layers["solver.thread2_speedup"] = (
            thread2_speedup(workload) if args.workload == "gaussian"
            else 0.0)
        result["layers"] = layers
        tracer.dump(args.out_dir.parent / f"spans-{args.workload}-seed{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed})
    result.update(attempted=runner.checks.attempted,
                  failed=len(runner.checks.failures),
                  failures=runner.checks.failures[:20], counts=runner.counts,
                  diagnostics=runner.diagnostics, versions=versions(),
                  peak_rss_mb=peak_rss_mb)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
