"""Command-line interface.

Subcommands
  gen        write a built-in channel spec as JSON
  tradeoff   sweep the rate-distortion-cost frontier (CSV + manifest)
  baselines  time-sharing baseline anchors and segments (CSV + manifest)
  bc         broadcast-channel regions and closed-form curves (CSV + manifest)
  verify     run an independent oracle check (JSON report; exit 1 on failure)

Exit codes: 0 success, 1 verification failure, 2 input error, 3 numerical
failure (no converged point).  Identical invocations produce byte-identical
output files; every file written by gen, tradeoff, baselines and bc is
paired with a `<out>.manifest.json` that records the command, its
configuration, the capdist, Python and NumPy versions, the wall time of
each stage (`stages_s`) and a sha256 digest of the input spec.  The digest of `--spec FILE` is taken
over the file's raw bytes; that of `--builtin` over the built spec's
field-wise binary form (see `_spec_digest`), so no law is encoded as text.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import hashlib
import itertools
import json
import platform
import sys
import time

import numpy as np

from . import bcregions, channel, estimator, examples, solver, verify
from .errors import CapdistError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
_WRITE_ROWS = 1 << 12                         # CSV rows per write, a few hundred KB of text


# ---------------------------------------------------------------------------
# builtin registry
# ---------------------------------------------------------------------------

def _builtin_gaussian(**kv):
    for k, v in kv.items():
        if k.endswith("points"):
            if not float(v).is_integer():
                raise ValueError(f"{k} must be a whole number, not {v}")
            kv[k] = int(v)
    return examples.gaussian_quantized_spec(examples.GaussianQuantConfig(**kv))


def _erasure_pairs(e1, s1, e2, s2):
    """Pair pmfs P(e_k, s_k) = P(e_k) P(s_k) of the erasure BC's two receivers."""
    return [np.outer([1.0 - e, e], [1.0 - s, s]) for e, s in ((e1, s1), (e2, s2))]


def _builtin_erasure_bc(e1=0.2, s1=0.12, e2=0.4, s2=0.3):
    return examples.erasure_bc_spec(*_erasure_pairs(e1, s1, e2, s2))


# each builder's keyword defaults are the builtin's
BUILTINS = {
    "binary": examples.binary_multiplicative_spec,
    "erasure": examples.erasure_spec,
    "gaussian": _builtin_gaussian,
    "gaussian-reduced": functools.partial(_builtin_gaussian, pam_points=8, noise_points=25,
                                          state_points=500, output_spacing_factor=1.0),
    "dueck-reduction": examples.dueck_reduction_spec,
    "binary-bc": examples.binary_bc_spec,
    "flipped-bc": examples.flipped_bc_spec,
    "dueck": examples.dueck_bc_spec,
    "erasure-bc": _builtin_erasure_bc,
}


class CliInputError(Exception):
    pass


class _Clock:
    """Wall time of each stage of one command, in seconds, in run order."""

    def __init__(self):
        self.stages = {}
        self._last = time.perf_counter()

    def lap(self, stage):
        """End `stage`: it took the time since the previous lap (or start)."""
        now = time.perf_counter()
        self.stages[stage] = now - self._last
        self._last = now


def _load_json(path, what, parse):
    """(parse(document), raw bytes) of a JSON file; a bad file is an input error."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return parse(json.loads(raw.decode("utf-8"))), raw
    except OSError as exc:
        raise CliInputError(f"cannot read {what} file: {exc}")
    except (CapdistError, TypeError, ValueError) as exc:
        raise CliInputError(f"invalid {what} file: {exc}")


def _load_instance(args):
    """Resolve --spec/--builtin into (spec, digest, source description),
    timed as the stage `load_spec` of args.clock."""
    if getattr(args, "spec", None):
        spec, raw = _load_json(args.spec, "spec", channel.spec_from_dict)
        loaded = spec, hashlib.sha256(raw).hexdigest(), args.spec
    elif getattr(args, "builtin", None):
        name, params = _parse_builtin(args.builtin)
        try:
            spec = BUILTINS[name](**params)
        except (CapdistError, TypeError, ValueError) as exc:
            raise CliInputError(f"builtin '{args.builtin}': {exc}")
        loaded = spec, _spec_digest(spec), f"builtin:{args.builtin}"
    else:
        raise CliInputError("one of --spec or --builtin is required")
    args.clock.lap("load_spec")
    return loaded


def _parse_builtin(text):
    parts = text.split(",")
    name = parts[0]
    if name not in BUILTINS:
        raise CliInputError(
            f"unknown builtin '{name}'; choose from {sorted(BUILTINS)}")
    params = {}
    for tok in parts[1:]:
        if "=" not in tok:
            raise CliInputError(f"builtin parameter '{tok}' is not k=v")
        k, v = tok.split("=", 1)
        try:
            params[k.replace("-", "_")] = float(v)
        except ValueError:
            raise CliInputError(f"builtin parameter '{tok}' is not numeric")
    return name, params


def _spec_digest(spec):
    """sha256 of a spec's canonical binary form, as hex.

    The form walks the spec's dataclass fields in declaration order; each
    value is named by its path from the spec's class, e.g. `SdmcSpec.law_y`
    or `SdmcSpec.distortion.state_values`, and fed as
      a dataclass  the line `<path> <class name>`, then its own fields;
      an array     the line `<path> <dtype.str> <shape>`, then its bytes in
                   C order;
      a BandedLaw  the same line and bytes as its dense law, fed one input's
                   dense rows at a time, so a spec has one digest however
                   its laws are stored;
      other values the line `<path> json <n>`, then the n UTF-8 bytes of
                   `json.dumps(value, sort_keys=True)` (None and labels),
    each line ending in a newline.  Every line fixes the length of what
    follows it, so different specs feed different bytes.  Spec arrays are
    float64 and C-contiguous, so hashing them copies nothing, and a banded
    law costs one input's dense rows.
    """
    h = hashlib.sha256()

    def feed(path, value):
        if isinstance(value, channel.BandedLaw):
            h.update(f"{path} {np.dtype(float).str} {value.shape}\n".encode())
            for x in range(value.shape[0]):
                h.update(value[x])
        elif dataclasses.is_dataclass(value):
            h.update(f"{path} {type(value).__name__}\n".encode())
            for f in dataclasses.fields(value):
                feed(f"{path}.{f.name}", getattr(value, f.name))
        elif isinstance(value, np.ndarray):
            h.update(f"{path} {value.dtype.str} {value.shape}\n".encode())
            h.update(value)
        else:
            text = json.dumps(value, sort_keys=True).encode("utf-8")
            h.update(f"{path} json {len(text)}\n".encode())
            h.update(text)

    feed(type(spec).__name__, spec)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _write_text(path, chunks):
    """Write the strings of chunks to the file at path, or to stdout if path is empty."""
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _cells(column, prefix=""):
    """CSV cells of one column, Python scalars or a 1-D array, each after
    prefix: bools as 1/0, anything else by str (for a float, its shortest
    round-trip decimal).  An array is formatted once per distinct value, a
    float one once per distinct bit pattern, so 0.0 and -0.0 stay apart."""
    if isinstance(column, np.ndarray):
        key = column.view(f"u{column.itemsize}") if column.dtype.kind == "f" else column
        distinct, inverse = np.unique(key, return_inverse=True)
        return np.array(_cells(distinct.view(column.dtype).tolist(), prefix), object)[inverse]
    cells = (["1" if v else "0" for v in column] if len(column) and isinstance(column[0], bool)
             else list(map(str, column)))
    return [prefix + c for c in cells] if prefix else cells


def _write_table(path, fmt, columns):
    """Write {name: column}, columns all of one length, as CSV (in blocks of
    _WRITE_ROWS rows) or as a JSON list of one object per row."""
    if fmt == "json":
        rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
        chunks = [json.dumps(rows, indent=1) + "\n"]
    else:
        lines = map(",".join, zip(*map(_cells, columns.values())))
        blocks = iter(lambda: "".join(f"{s}\n" for s in itertools.islice(lines, _WRITE_ROWS)), "")
        chunks = itertools.chain([",".join(columns) + "\n"], blocks)
    _write_text(path, chunks)


def _write_manifest(args, command, digest, config):
    """Write `<args.out>.manifest.json`; its stages_s ends with `write`, the
    time since args.clock's last lap."""
    if not args.out:
        return
    args.clock.lap("write")
    manifest = {
        "command": command,
        "spec_digest_sha256": digest,
        "config": config,
        "version": _version(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "stages_s": args.clock.stages,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")


def _version():
    from . import __version__
    return __version__


def _budget(text):
    """--budget: a float, infinite ones included; NaN is a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if np.isnan(value):
        raise argparse.ArgumentTypeError(f"must be a number, not {text!r}")
    return value


def _unit(text):
    """--q, --gamma, --e1, --s1, --e2, --s2: a probability in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be a number in [0, 1], not {text!r}")
    return value


def _parse_mu_grid(text):
    if text == "auto":
        return [0.0] + list(np.logspace(-3.0, 3.0, 40))
    parts = text.split(":")
    if len(parts) != 3:
        raise CliInputError("--mu-grid must be 'auto' or 'a:b:n'")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise CliInputError(f"bad --mu-grid '{text}'")
    if n < 1:
        raise CliInputError("--mu-grid needs n >= 1")
    if not (np.isfinite(a) and np.isfinite(b)):
        raise CliInputError(f"--mu-grid needs finite endpoints, not '{text}'")
    if not (a >= 0 and b >= 0):
        raise CliInputError("--mu-grid needs mu >= 0")
    return list(np.linspace(a, b, n))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args):
    spec, digest, _ = _load_instance(args)
    text = json.dumps(channel.spec_to_dict(spec), indent=1) + "\n"
    args.clock.lap("compute")
    _write_text(args.out, [text])
    _write_manifest(args, "gen", digest, {"builtin": args.builtin})
    return EXIT_OK


def cmd_tradeoff(args):
    spec, digest, source = _load_instance(args)
    if isinstance(spec, channel.SdmbcSpec):
        raise CliInputError("tradeoff expects a single-receiver spec")
    mu_grid = _parse_mu_grid(args.mu_grid)
    points = solver.sweep_frontier(spec, args.budget, mu_grid)
    finite = [p for p in points if np.isfinite(p.mu)]
    if finite and not any(p.converged for p in finite):
        print("error: no converged point on the sweep", file=sys.stderr)
        return EXIT_NUMERICAL
    header = ("mu", "rate_bits", "distortion", "cost", "iterations", "converged", "gap")
    rows = [(p.mu, p.rate, p.distortion, p.cost, p.iterations, p.converged, p.gap)
            for p in points]
    args.clock.lap("compute")
    _write_table(args.out, args.format, dict(zip(header, zip(*rows))))
    _write_manifest(args, "tradeoff", digest,
                    {"source": source, "budget": args.budget,
                     "mu_grid": args.mu_grid})
    return EXIT_OK


def cmd_baselines(args):
    spec, digest, source = _load_instance(args)
    if isinstance(spec, channel.SdmbcSpec):
        raise CliInputError("baselines expects a single-receiver spec")
    base = solver.baseline_ts(spec, budget=args.budget)
    # (rate, distortion) of each named point; basic and improved are segments
    points = [(base["r_min"], base["d_min"]), (base["c_noest"], base["d_max"]),
              (base["c_noest"], base["d_trivial"]), *base["basic"], *base["improved"]]
    rates, distortions = zip(*points)
    args.clock.lap("compute")
    _write_table(args.out, args.format, {
        "name": ("d_min_point", "capacity_point", "d_trivial_point",
                 "basic_ts_start", "basic_ts_end", "improved_ts_start",
                 "improved_ts_end"),
        "rate_bits": rates, "distortion": distortions})
    _write_manifest(args, "baselines", digest,
                    {"source": source, "budget": args.budget})
    return EXIT_OK


def _region_columns(samples):
    """Columns of a region-sample array: r0, r1, r2, d1, d2, then `params`,
    its scalar parameter columns as 'k=v;...' sorted by name (vector columns
    such as pmfs are left out)."""
    names = samples.dtype.names
    columns = {k: samples[k] for k in names[:5]}
    scalar = sorted(k for k in names[5:] if samples.dtype[k].ndim == 0)
    parts = [_cells(samples[k], f"{k}=") for k in scalar]   # one string per distinct value
    if len(parts) == 1:                                       # no per-row join
        columns["params"] = parts[0].tolist()
    elif parts:
        columns["params"] = [";".join(p) for p in zip(*parts)]
    else:
        columns["params"] = [""] * len(samples)
    return columns


def cmd_bc(args):
    sub = args.region
    digest = ""
    if sub in ("degraded", "outer"):
        spec, digest, source = _load_instance(args)
        if not isinstance(spec, channel.SdmbcSpec):
            raise CliInputError(f"bc {sub} expects a broadcast spec")
        if sub == "degraded":
            ok, worst, _ = bcregions.is_physically_degraded(spec)
            if not ok:
                print(f"warning: spec is not physically degraded "
                      f"(worst conditional deviation {worst:.3g}); "
                      f"the emitted region is not exact", file=sys.stderr)
        try:                                 # ValueError: a resolution below 1
            if sub == "degraded":
                samples = bcregions.degraded_region(spec, resolution=args.resolution)
            else:
                samples = bcregions.outer_bound_samples(spec, resolution=args.resolution,
                                                        seed=args.seed)
        except ValueError as exc:
            raise CliInputError(str(exc))
        columns = _region_columns(samples)
        config = {"source": source, "resolution": args.resolution}
    elif sub in ("binary", "flipped"):
        region = (bcregions.binary_bc_region if sub == "binary"
                  else bcregions.flipped_bc_region)
        grid = _grid(args.resolution)
        columns = _region_columns(region(args.q, args.gamma, grid, grid))
        config = {"q": args.q, "gamma": args.gamma}
    elif sub in ("dueck-inner", "dueck-outer"):
        t_grid = _grid(args.resolution)
        if sub == "dueck-outer":
            columns = _region_columns(bcregions.dueck_outer(args.q, t_grid))
        else:
            _, hull = bcregions.dueck_inner(args.q, t_grid)
            columns = dict(zip(("distortion", "sum_rate"), zip(*hull)))
        config = {"q": args.q, "resolution": args.resolution}
    elif sub == "erasure":
        t1, t2 = bcregions.erasure_bc_distortion_region(
            *_erasure_pairs(args.e1, args.s1, args.e2, args.s2))
        columns = {"d1_threshold": [t1], "d2_threshold": [t2]}
        config = {"e1": args.e1, "s1": args.s1, "e2": args.e2, "s2": args.s2}
    else:                                    # pragma: no cover
        raise CliInputError(f"unknown bc subcommand {sub}")
    args.clock.lap("compute")
    _write_table(args.out, args.format, columns)
    _write_manifest(args, f"bc {sub}", digest, config)
    return EXIT_OK


def _grid(resolution):
    if resolution < 1:
        raise CliInputError(f"--resolution must be >= 1, not {resolution}")
    return np.linspace(0.0, 1.0, resolution + 1)


def cmd_verify(args):
    spec, digest, source = _load_instance(args)
    check = args.check
    if isinstance(spec, channel.SdmbcSpec) and check != "no-tradeoff":
        raise CliInputError(f"{check} check expects a single-receiver spec")
    report = {"check": check, "source": source, "spec_digest_sha256": digest}
    if check == "no-tradeoff":               # on a broadcast spec: CD = C x D
        rep = (bcregions.product_region_check(spec)
               if isinstance(spec, channel.SdmbcSpec) else solver.no_tradeoff_check(spec))
        report.update(vars(rep))
    elif check == "estimator":
        p_x = np.full(spec.input_size, 1.0 / spec.input_size)
        est = estimator.build_estimator(spec)
        analytic = estimator.expected_distortion(est, p_x)
        _, oracle = verify.exhaustive_estimator_search(spec, p_x)
        gap = abs(analytic - oracle)
        report.update(analytic=analytic, oracle=oracle, gap=gap,
                      passed=bool(gap <= 1e-12))
    elif check == "frontier":
        dmin, _ = estimator.d_min(spec, args.budget)
        dmax = estimator.d_trivial(spec)
        worst = 0.0
        mu_grid = [0.0] + list(np.logspace(-3, 3, 120))
        points = solver.sweep_frontier(spec, args.budget, mu_grid)
        curve = bcregions.upper_concave_hull(
            [(p.distortion, p.rate) for p in points])
        for frac in (0.25, 0.5, 1.0):
            d_cap = dmin + frac * (dmax - dmin)
            oracle, _ = verify.brute_force_tradeoff(spec, d_cap, args.budget,
                                                    1e-2)
            ours = bcregions.envelope_value(curve, d_cap)
            worst = max(worst, abs(ours - oracle))
        report.update(worst_gap=worst, passed=bool(worst <= 2e-3))
    elif check == "distortion-mc":
        p_x = np.full(spec.input_size, 1.0 / spec.input_size)
        try:                                 # ValueError: fewer than one sample
            trial = verify.simulate_distortion(spec, p_x, args.samples, args.seed)
        except ValueError as exc:
            raise CliInputError(f"--samples: {exc}")
        report.update(empirical=trial.empirical_value,
                      analytic=trial.analytic_value, z_score=trial.z_score,
                      passed=trial.passed)
    else:                                    # pragma: no cover
        raise CliInputError(f"unknown check {check}")
    _write_text(args.out, [json.dumps(report, indent=1) + "\n"])
    print("PASS" if report["passed"] else "FAIL", file=sys.stderr)
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_instance_args(p):
    p.add_argument("--spec", help="channel spec JSON file")
    p.add_argument("--builtin", help="builtin name, e.g. 'binary,q=0.4'")


def build_parser():
    ap = argparse.ArgumentParser(prog="capdist",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=_version())
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", help="write a builtin spec as JSON")
    _add_instance_args(p)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("tradeoff", help="sweep the C(D,B) frontier")
    _add_instance_args(p)
    p.add_argument("--budget", type=_budget, default=np.inf)
    p.add_argument("--mu-grid", default="auto")
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_tradeoff)

    p = sub.add_parser("baselines", help="time-sharing baselines")
    _add_instance_args(p)
    p.add_argument("--budget", type=_budget, default=np.inf)
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_baselines)

    p = sub.add_parser("bc", help="broadcast-channel regions")
    p.add_argument("region", choices=("degraded", "outer", "binary", "flipped",
                                      "dueck-inner", "dueck-outer", "erasure"))
    _add_instance_args(p)
    p.add_argument("--q", type=_unit, default=0.75)
    p.add_argument("--gamma", type=_unit, default=0.5)
    p.add_argument("--e1", type=_unit, default=0.2)
    p.add_argument("--s1", type=_unit, default=0.12)
    p.add_argument("--e2", type=_unit, default=0.4)
    p.add_argument("--s2", type=_unit, default=0.3)
    p.add_argument("--resolution", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_bc)

    p = sub.add_parser("verify", help="independent oracle checks")
    p.add_argument("check", choices=("estimator", "frontier", "distortion-mc",
                                     "no-tradeoff"))
    _add_instance_args(p)
    p.add_argument("--budget", type=_budget, default=np.inf)
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the distortion-mc samples (other checks ignore it)")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    args.clock = _Clock()
    try:
        return args.fn(args)
    except (CliInputError, CapdistError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":                   # pragma: no cover
    sys.exit(main())
