"""Finite-alphabet probability primitives and channel-specification model.

Alphabets are index-based (0..n-1); optional string labels are carried only
for I/O.  All tensors are dense float64, frozen (read-only) and validated on
construction: a spec that exists satisfies every structural invariant.

A single-receiver spec (SdmcSpec) stores the channel law as the pair of
marginals P(y|x,s) and P(z|x,s): the rate I(X;Y|S) reads only the first and
the optimal estimator only the second, so the pair is exact for everything
we compute.  A joint law P(y,z|x,s) is accepted as input and factored on
construction.  A broadcast spec (SdmbcSpec) keeps its joint law, because its
outer bound and degradedness test read the two outputs jointly; it reaches
the single-receiver code through `receiver_spec`, one receiver's view.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from itertools import chain, combinations
from math import comb
from typing import Optional

import numpy as np

from .errors import InstanceTooLarge, SpecValidationError

PMF_ATOL = 1e-9        # normalization tolerance on validated pmfs
RENORM_ATOL = 1e-6     # parser renormalizes rows off by at most this much
MAX_LATTICE_POINTS = 5_000_000


def _freeze(a):
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.setflags(write=False)
    return a


def renormalize_rows(t, name="law"):
    """Renormalize the last axis of `t` to sum to 1.

    Rows whose sums deviate from 1 by more than RENORM_ATOL are rejected:
    that is a modeling error, not text-format rounding.
    """
    t = np.asarray(t, dtype=float)
    sums = t.sum(axis=-1)
    bad = np.abs(sums - 1.0) > RENORM_ATOL
    if np.any(bad):
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise SpecValidationError(
            f"{name}: row {idx} sums to {sums[bad].flat[0]}, off by more than {RENORM_ATOL}")
    return t / sums[..., None]


@dataclass(frozen=True)
class QuadraticDistortion:
    """d(s, shat) = (state_values[s] - estimate_values[shat])**2.

    Used when a dense |S| x |Shat| matrix would be wasteful (the quantized
    Gaussian example has 16000 states).  estimate_values must be sorted
    ascending; the estimator module exploits this for a posterior-mean
    fast path.
    """
    state_values: np.ndarray
    estimate_values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "state_values", _freeze(self.state_values))
        object.__setattr__(self, "estimate_values", _freeze(self.estimate_values))
        for name in ("state_values", "estimate_values"):
            _check_finite(getattr(self, name), f"quadratic distortion: {name}")
        if np.any(np.diff(self.estimate_values) < 0):
            raise SpecValidationError("quadratic distortion: estimate_values must be sorted ascending")

    @property
    def shape(self):
        return (self.state_values.size, self.estimate_values.size)

    def lookup(self, s_idx, shat_idx):
        """Vectorized d(s, shat) for index arrays."""
        return (self.state_values[s_idx] - self.estimate_values[shat_idx]) ** 2

    def as_matrix(self):
        sv, ev = self.state_values, self.estimate_values
        return (sv[:, None] - ev[None, :]) ** 2


def distortion_lookup(d, s_idx, shat_idx):
    if isinstance(d, QuadraticDistortion):
        return d.lookup(s_idx, shat_idx)
    return np.asarray(d)[s_idx, shat_idx]


@dataclass(frozen=True)
class MappingTable:
    """A total function psi: X x Z -> T, stored as an integer table."""
    table: np.ndarray
    codomain_size: int

    def __post_init__(self):
        t = np.ascontiguousarray(np.asarray(self.table, dtype=np.int64))
        t.setflags(write=False)
        object.__setattr__(self, "table", t)
        if t.ndim != 2:
            raise SpecValidationError("mapping table must be 2-D (X x Z)")
        if t.size and (t.min() < 0 or t.max() >= self.codomain_size):
            raise SpecValidationError("mapping table image outside codomain")


@dataclass(frozen=True)
class SdmcSpec:
    """Single-receiver state-dependent memoryless channel.

    The law is stored as `law_y` = P(y|x,s) and `law_z` = P(z|x,s), both
    indexed (x,s,·).  Give either that pair or `law`, the joint P(y,z|x,s)
    indexed (x,s,y,z): the joint is validated as given, then only its two
    marginals are kept.  `distortion` is either a dense (|S|, |Shat|)
    matrix or a QuadraticDistortion.  `cost` defaults to all-zero.
    """
    state_pmf: np.ndarray
    law: InitVar[Optional[np.ndarray]] = None
    law_y: Optional[np.ndarray] = None
    law_z: Optional[np.ndarray] = None
    distortion: object = None
    cost: Optional[np.ndarray] = None
    labels: Optional[dict] = field(default=None, compare=False)

    def __post_init__(self, law):
        if law is not None and (self.law_y is not None or self.law_z is not None):
            raise SpecValidationError("spec has both a joint law and marginal laws; give one form")
        if law is None and (self.law_y is None or self.law_z is None):
            raise SpecValidationError("spec needs either a joint law or both marginal laws")
        object.__setattr__(self, "state_pmf", _freeze(self.state_pmf))
        if self.state_pmf.ndim != 1:
            raise SpecValidationError(
                f"state_pmf: expected 1-D vector, got shape {self.state_pmf.shape}")
        _check_rows(self.state_pmf, "state_pmf")
        if law is not None:
            law = np.ascontiguousarray(law, dtype=float)
            self._check_law("law", law, "x,s,y,z")   # a sum can hide a bad entry
            object.__setattr__(self, "law_y", law.sum(axis=3))
            object.__setattr__(self, "law_z", law.sum(axis=2))
        for name in ("law_y", "law_z"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
            self._check_law(name, getattr(self, name), "x,s,·")
        if self.law_y.shape[:2] != self.law_z.shape[:2]:
            raise SpecValidationError("law_y and law_z disagree on (x,s) shape")
        object.__setattr__(self, "cost", _freeze(
            np.zeros(self.input_size) if self.cost is None else self.cost))
        if self.distortion is None:
            raise SpecValidationError("spec needs a distortion")
        if not isinstance(self.distortion, QuadraticDistortion):
            object.__setattr__(self, "distortion", _freeze(self.distortion))
        _check_distortion(self.distortion, "distortion")
        if self.distortion.shape[0] != self.state_size:
            raise SpecValidationError(
                f"distortion: state axis {self.distortion.shape[0]} does not match "
                f"state_pmf size {self.state_size}")
        if self.cost.shape != (self.input_size,):
            raise SpecValidationError("cost: wrong shape")
        _check_finite(self.cost, "cost")
        if np.any(self.cost < 0):
            raise SpecValidationError(f"cost: negative entry at x={int(np.argmin(self.cost))}")

    def _check_law(self, name, t, axes):
        """A law indexed `axes`, whose leading two are (x,s): its ndim, its
        state axis, and every (x,s) row a pmf."""
        ndim = axes.count(",") + 1
        if t.ndim != ndim:
            raise SpecValidationError(f"{name}: expected {ndim}-D ({axes}), got shape {t.shape}")
        if t.shape[1] != self.state_size:
            raise SpecValidationError(f"{name}: state axis does not match state_pmf")
        _check_rows(t.reshape(t.shape[:2] + (-1,)), f"{name} row (x,s)")

    # -- sizes ----------------------------------------------------------
    @property
    def input_size(self):
        return self.law_y.shape[0]

    @property
    def state_size(self):
        return self.state_pmf.size

    @property
    def output_size(self):
        return self.law_y.shape[2]

    @property
    def feedback_size(self):
        return self.law_z.shape[2]

    @property
    def estimate_size(self):
        return self.distortion.shape[1]


@dataclass(frozen=True)
class SdmbcSpec:
    """Two-receiver broadcast channel with joint state pmf P(s1,s2) and law
    P(y1,y2,z | s1,s2,x) indexed (s1,s2,x,y1,y2,z)."""
    joint_state_pmf: np.ndarray          # (S1, S2)
    law: np.ndarray                      # (S1, S2, X, Y1, Y2, Z)
    distortion_1: np.ndarray             # (S1, Shat1)
    distortion_2: np.ndarray             # (S2, Shat2)
    labels: Optional[dict] = field(default=None, compare=False)

    def __post_init__(self):
        for name in ("joint_state_pmf", "law", "distortion_1", "distortion_2"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        js, law = self.joint_state_pmf, self.law
        if js.ndim != 2:
            raise SpecValidationError("joint_state_pmf must be 2-D (s1,s2)")
        _check_rows(js.ravel(), "joint_state_pmf")
        if law.ndim != 6:
            raise SpecValidationError(
                f"law: expected 6-D (s1,s2,x,y1,y2,z), got shape {law.shape}")
        if law.shape[:2] != js.shape:
            raise SpecValidationError("law: state axes do not match joint_state_pmf")
        _check_rows(law.reshape(law.shape[:3] + (-1,)), "law row (s1,s2,x)")
        for k in (1, 2):
            d = getattr(self, f"distortion_{k}")
            _check_distortion(d, f"distortion_{k}")
            if d.shape[0] != js.shape[k - 1]:
                raise SpecValidationError(f"distortion_{k}: state axis does not match S{k}")

    @property
    def input_size(self):
        return self.law.shape[2]

    @property
    def feedback_size(self):
        return self.law.shape[5]


# ---------------------------------------------------------------------------
# validation helpers (run by the spec constructors)
# ---------------------------------------------------------------------------

def _check_finite(t, name):
    if not np.all(np.isfinite(t)):
        idx = tuple(int(i) for i in np.argwhere(~np.isfinite(t))[0])
        raise SpecValidationError(f"{name}: non-finite entry at {idx}")


def _check_rows(t, name):
    """Every row (last axis) of t is a pmf: finite, nonnegative, summing to 1
    within PMF_ATOL; a 1-D t is one pmf.  Messages name the field and the
    index."""
    with np.errstate(over="ignore", invalid="ignore"):
        sums = t.sum(axis=-1)
    # NaN, -inf and negative entries fail the min, +inf the sums; the scans
    # that name the first fault run only then
    if not (np.min(t, initial=0.0) >= 0 and np.isfinite(sums).all()):
        _check_finite(t, name)
        if np.any(t < 0):
            idx = tuple(int(i) for i in np.argwhere(t < 0)[0])
            raise SpecValidationError(f"{name}: negative probability at {idx}")
        sums = t.sum(axis=-1)    # finite entries that overflow warn, as they did
    bad = np.abs(sums - 1.0) > PMF_ATOL
    if np.any(bad):
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        row = f" row {idx}" if idx else ""
        raise SpecValidationError(
            f"{name}:{row} sums to {float(sums[idx]):.12g}, not 1 within {PMF_ATOL}")


def _check_distortion(d, name):
    if isinstance(d, QuadraticDistortion):          # validated when built
        return
    d = np.asarray(d)
    if d.ndim != 2:
        raise SpecValidationError(f"{name}: expected a 2-D matrix, got shape {d.shape}")
    _check_finite(d, name)
    if np.any(d < 0):
        idx = tuple(int(i) for i in np.argwhere(d < 0)[0])
        raise SpecValidationError(f"{name}: negative distortion at {idx}")


# ---------------------------------------------------------------------------
# simplex lattice
# ---------------------------------------------------------------------------

def simplex_lattice(n, k):
    """All pmfs on n symbols whose entries are multiples of 1/k, as an
    (N, n) array in lexicographic order of the numerators.

    Stars and bars: each choice of n-1 bar positions among n+k-1 slots is
    one composition of k, and combinations() yields them lexicographically.
    Raises ValueError for k < 1 and InstanceTooLarge above MAX_LATTICE_POINTS
    points.
    """
    if k < 1:
        raise ValueError(f"simplex lattice needs a resolution k >= 1, not {k}")
    count = comb(n + k - 1, n - 1)
    if count > MAX_LATTICE_POINTS:
        raise InstanceTooLarge(
            f"{count} simplex lattice points for {n} symbols at 1/{k}")
    bars = np.fromiter(chain.from_iterable(combinations(range(n + k - 1), n - 1)),
                       dtype=np.int64, count=count * (n - 1)).reshape(count, n - 1)
    edges = np.column_stack([np.full(count, -1), bars, np.full(count, n + k - 1)])
    return (np.diff(edges, axis=1) - 1) / k


# ---------------------------------------------------------------------------
# broadcast receivers
# ---------------------------------------------------------------------------

def receiver_spec(bc, k):
    """Receiver k's single-user view of a broadcast spec.

    The state is S_k, with the other receiver's state averaged under
    P(s_other | s_k) (uniform where P(s_k) = 0); the laws are P(y_k | x, s_k)
    and P(z | x, s_k), the distortion d_k, the cost zero.  Rates to receiver
    k, its optimal estimator and its no-tradeoff check are the single-user
    ones on this spec.
    """
    if k not in (1, 2):
        raise ValueError(f"receiver must be 1 or 2, not {k!r}")
    js, law = bc.joint_state_pmf, bc.law          # (S1,S2), (S1,S2,X,Y1,Y2,Z)
    if k == 2:                                    # receiver k's axes first
        js, law = js.T, law.transpose(1, 0, 2, 4, 3, 5)
    p_k = js.sum(axis=1)
    cond = np.where(p_k[:, None] > 0, js / np.where(p_k[:, None] > 0, p_k[:, None], 1.0),
                    1.0 / js.shape[1])            # P(s_other | s_k)
    return SdmcSpec(state_pmf=p_k,
                    law_y=np.einsum("ab,abxy->xay", cond, law.sum(axis=(4, 5))),
                    law_z=np.einsum("ab,abxz->xaz", cond, law.sum(axis=(3, 4))),
                    distortion=bc.distortion_1 if k == 1 else bc.distortion_2)


# ---------------------------------------------------------------------------
# JSON I/O
# ---------------------------------------------------------------------------

_SDMC_FIELDS = {"kind", "state_pmf", "law", "law_y", "law_z", "distortion",
                "cost", "labels"}
_SDMBC_FIELDS = {"kind", "joint_state_pmf", "law", "distortion_1",
                 "distortion_2", "labels"}
_REQUIRED = {"sdmc": ("state_pmf", "distortion"),
             "sdmbc": ("joint_state_pmf", "distortion_1", "distortion_2")}


def _parse_distortion(obj, name):
    if isinstance(obj, dict):
        if set(obj) != {"kind", "state_values", "estimate_values"}:
            raise SpecValidationError(f"{name}: fields {sorted(obj)}; expected kind, "
                                      f"state_values and estimate_values")
        if obj.get("kind") != "quadratic":
            raise SpecValidationError(f"{name}: unknown distortion kind {obj.get('kind')!r}")
        return QuadraticDistortion(np.asarray(obj["state_values"], float),
                                   np.asarray(obj["estimate_values"], float))
    return np.asarray(obj, dtype=float)


def spec_from_dict(doc):
    """Build a validated spec from a parsed JSON document.

    Law rows and the state pmf off-normalized by at most 1e-6 are
    renormalized; unknown fields and missing required ones are rejected.
    """
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SpecValidationError("spec document must be an object with a 'kind' field")
    kind = doc["kind"]
    if kind not in ("sdmc", "sdmbc"):
        raise SpecValidationError(f"unknown spec kind {kind!r}")
    extra = set(doc) - (_SDMC_FIELDS if kind == "sdmc" else _SDMBC_FIELDS)
    if extra:
        raise SpecValidationError(f"unknown spec fields: {sorted(extra)}")
    factored = "law" not in doc and {"law_y", "law_z"} & doc.keys()  # sdmc only
    required = _REQUIRED[kind] + (("law_y", "law_z") if factored else ("law",))
    missing = [name for name in required if name not in doc]
    if missing:
        raise SpecValidationError(f"missing required spec fields: {missing}")
    # every law form given goes to the spec, which rejects a joint law given
    # with marginal ones
    laws = {name: renormalize_rows(np.asarray(doc[name], float), name)
            for name in ("law_y", "law_z") if name in doc}
    if "law" in doc:                              # rows follow (x,s) or (s1,s2,x)
        raw = np.asarray(doc["law"], float)
        lead = raw.shape[:2 if kind == "sdmc" else 3]
        laws["law"] = renormalize_rows(raw.reshape(lead + (-1,)), "law").reshape(raw.shape)
    pmf = np.asarray(doc["state_pmf" if kind == "sdmc" else "joint_state_pmf"], float)
    if abs(pmf.sum() - 1.0) <= RENORM_ATOL:
        pmf = pmf / pmf.sum()
    if kind == "sdmc":
        return SdmcSpec(state_pmf=pmf, **laws,
                        distortion=_parse_distortion(doc["distortion"], "distortion"),
                        cost=np.asarray(doc["cost"], float) if "cost" in doc else None,
                        labels=doc.get("labels"))
    return SdmbcSpec(joint_state_pmf=pmf, **laws,
                     distortion_1=np.asarray(doc["distortion_1"], float),
                     distortion_2=np.asarray(doc["distortion_2"], float),
                     labels=doc.get("labels"))


def spec_to_dict(spec):
    """Serialize a spec back to the JSON document format."""
    if isinstance(spec, SdmcSpec):
        doc = {"kind": "sdmc", "state_pmf": spec.state_pmf.tolist(),
               "law_y": spec.law_y.tolist(), "law_z": spec.law_z.tolist()}
        if isinstance(spec.distortion, QuadraticDistortion):
            doc["distortion"] = {"kind": "quadratic",
                                 "state_values": spec.distortion.state_values.tolist(),
                                 "estimate_values": spec.distortion.estimate_values.tolist()}
        else:
            doc["distortion"] = np.asarray(spec.distortion).tolist()
        if np.any(spec.cost != 0):
            doc["cost"] = spec.cost.tolist()
        if spec.labels:
            doc["labels"] = spec.labels
        return doc
    if isinstance(spec, SdmbcSpec):
        doc = {"kind": "sdmbc",
               "joint_state_pmf": spec.joint_state_pmf.tolist(),
               "law": spec.law.tolist(),
               "distortion_1": np.asarray(spec.distortion_1).tolist(),
               "distortion_2": np.asarray(spec.distortion_2).tolist()}
        if spec.labels:
            doc["labels"] = spec.labels
        return doc
    raise SpecValidationError(f"not a channel spec: {type(spec)!r}")
