"""Closed-form example evaluators and paper-faithful spec builders."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import estimator, solver
from .bcregions import binary_entropy
from .channel import MappingTable, QuadraticDistortion, SdmbcSpec, SdmcSpec
from .errors import MemoryGuard

# SciPy is imported inside the three Gaussian functions that use it: at module
# level its import took most of the CLI's start-up time.

HAMMING2 = np.array([[0.0, 1.0], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# binary multiplicative channel (single user)
# ---------------------------------------------------------------------------

def binary_multiplicative_spec(q=0.4):
    """Y = S*X with S ~ Bernoulli(q), perfect feedback Z = Y, Hamming
    distortion, zero input cost."""
    law = np.zeros((2, 2, 2))
    for x in range(2):
        for s in range(2):
            law[x, s, s * x] = 1.0
    return SdmcSpec(state_pmf=np.array([1.0 - q, q]), law_y=law, law_z=law,
                    distortion=HAMMING2.copy())


def binary_multiplicative_cd(q, distortion):
    """Closed-form tradeoff C(D) = q * H_b(D / min{q, 1-q}), capped at the
    capacity once D reaches D_max."""
    dmax_scale = min(q, 1.0 - q)
    if dmax_scale == 0.0:                  # a known state: D_max = 0
        return q
    p = min(distortion / dmax_scale, 0.5)
    return q * binary_entropy(p)


# ---------------------------------------------------------------------------
# state-dependent erasure channel (single user, no tradeoff)
# ---------------------------------------------------------------------------

def erasure_spec(p_s=0.5):
    """S ~ Bernoulli(p_s); Y = X when S=0 and '?' (index 2) when S=1;
    perfect feedback Z = Y; Hamming distortion on the state."""
    law = np.zeros((2, 2, 3))
    for x in range(2):
        law[x, 0, x] = 1.0
        law[x, 1, 2] = 1.0
    return SdmcSpec(state_pmf=np.array([1.0 - p_s, p_s]), law_y=law, law_z=law,
                    distortion=HAMMING2.copy())


def erasure_psi():
    """psi(x, z) = 1{z = '?'}; reveals exactly the state."""
    table = np.zeros((2, 3), dtype=np.int64)
    table[:, 2] = 1
    return MappingTable(table=table, codomain_size=2)


# ---------------------------------------------------------------------------
# binary broadcast examples
# ---------------------------------------------------------------------------

def _binary_bc_spec(q, gamma, flip):
    """Y1 = S1 X and Y2 = S2 (X xor flip), output feedback Z = (Y1, Y2) with
    z = 2*y1 + y2, S1 ~ Bernoulli(q) and S2 = S1 B, B ~ Bernoulli(gamma)."""
    law = np.zeros((2, 2, 2, 2, 2, 4))
    for s1 in range(2):
        for s2 in range(2):
            for x in range(2):
                y1, y2 = s1 * x, s2 * (x ^ flip)
                law[s1, s2, x, y1, y2, 2 * y1 + y2] = 1.0
    return SdmbcSpec(joint_state_pmf=np.array([[1.0 - q, 0.0],
                                               [q * (1.0 - gamma), q * gamma]]),
                     law=law, distortion_1=HAMMING2.copy(), distortion_2=HAMMING2.copy())


def binary_bc_spec(q=0.6, gamma=0.5):
    """Physically degraded binary BC: Y_k = S_k X, output feedback
    Z = (Y1, Y2) with z = 2*y1 + y2."""
    return _binary_bc_spec(q, gamma, flip=0)


def flipped_bc_spec(q=0.6, gamma=0.5):
    """Binary BC with flipping input: Y1 = S1 X, Y2 = S2 (1-X)."""
    return _binary_bc_spec(q, gamma, flip=1)


# ---------------------------------------------------------------------------
# erasure BC with noisy feedback
# ---------------------------------------------------------------------------

def erasure_bc_spec(p_e1s1, p_e2s2):
    """Erasure BC: Y_k = X when S_k=0, '?' when S_k=1; feedback component
    Z_k = Y_k when E_k=0, '?' when E_k=1.

    The erasure flags E_k are part of the channel randomness; to keep the
    model memoryless with i.i.d. states we enlarge receiver k's state to the
    pair (e_k, s_k), indexed 2*e + s.  Distortion depends only on the s
    component.  The pair pmfs must be independent across receivers (the
    product-form assumption of the closed-form distortion region).
    """
    p1 = np.asarray(p_e1s1, float)
    p2 = np.asarray(p_e2s2, float)
    joint = np.outer(p1.ravel(), p2.ravel())       # index 2*e + s each
    law = np.zeros((4, 4, 2, 3, 3, 9))
    for st1 in range(4):
        e1, s1 = divmod(st1, 2)
        for st2 in range(4):
            e2, s2 = divmod(st2, 2)
            for x in range(2):
                y1 = x if s1 == 0 else 2
                y2 = x if s2 == 0 else 2
                z1 = y1 if e1 == 0 else 2
                z2 = y2 if e2 == 0 else 2
                law[st1, st2, x, y1, y2, 3 * z1 + z2] = 1.0
    d = np.zeros((4, 2))
    for st in range(4):
        s = st % 2
        d[st, :] = [s != 0, s != 1]
    return SdmbcSpec(joint_state_pmf=joint, law=law,
                     distortion_1=d.copy(), distortion_2=d.copy())


def erasure_bc_psis():
    """psi_k(x, z) = 1{z_k = '?'} for the 9-symbol joint feedback."""
    t1 = np.zeros((2, 9), dtype=np.int64)
    t2 = np.zeros((2, 9), dtype=np.int64)
    for z in range(9):
        z1, z2 = divmod(z, 3)
        t1[:, z] = int(z1 == 2)
        t2[:, z] = int(z2 == 2)
    return MappingTable(t1, 2), MappingTable(t2, 2)


# ---------------------------------------------------------------------------
# Dueck broadcast example
# ---------------------------------------------------------------------------

def dueck_bc_spec(q=0.75):
    """State-dependent Dueck BC.

    Input x = 4*x0 + 2*x1 + x2; states S_k iid Bernoulli(q); outputs
    Y_k = (x0, y_k', s1, s2) indexed 8*x0 + 4*y_k' + 2*s1 + s2 with
    y_k' = s_k (x_k xor N), N ~ Bernoulli(1/2); feedback z = 2*y1' + y2'.
    """
    law = np.zeros((2, 2, 8, 16, 16, 4))
    for s1 in range(2):
        for s2 in range(2):
            for x in range(8):
                x0, x1, x2 = (x >> 2) & 1, (x >> 1) & 1, x & 1
                for n in range(2):
                    y1p = s1 * (x1 ^ n)
                    y2p = s2 * (x2 ^ n)
                    i1 = 8 * x0 + 4 * y1p + 2 * s1 + s2
                    i2 = 8 * x0 + 4 * y2p + 2 * s1 + s2
                    law[s1, s2, x, i1, i2, 2 * y1p + y2p] += 0.5
    pk = np.array([1.0 - q, q])
    return SdmbcSpec(joint_state_pmf=np.outer(pk, pk), law=law,
                     distortion_1=HAMMING2.copy(), distortion_2=HAMMING2.copy())


def dueck_reduction_spec(q=0.75, receiver=1):
    """Single-user reduction of the Dueck BC used by the oracles.

    The common bit x0 is dropped (it never affects sensing): input
    x = 2*x1 + x2, state s = 2*s1 + s2, output = feedback = 2*y1' + y2',
    Hamming distortion on receiver `receiver`'s state bit (1 or 2).
    """
    if receiver not in (1, 2):
        raise ValueError(f"receiver must be 1 or 2, not {receiver!r}")
    law = np.zeros((4, 4, 4))
    for s in range(4):
        s1, s2 = divmod(s, 2)
        for x in range(4):
            x1, x2 = divmod(x, 2)
            for n in range(2):
                y = 2 * (s1 * (x1 ^ n)) + (s2 * (x2 ^ n))
                law[x, s, y] += 0.5
    pk = np.array([1.0 - q, q])
    state_pmf = np.outer(pk, pk).ravel()
    d = np.zeros((4, 2))
    for s in range(4):
        bit = (s >> 1) & 1 if receiver == 1 else s & 1
        d[s, :] = [bit != 0, bit != 1]
    return SdmcSpec(state_pmf=state_pmf, law_y=law, law_z=law, distortion=d)


def dueck_input_pmf(t):
    """Input pmf over (x1, x2) with P(X1 != X2) = t, symmetric otherwise."""
    return np.array([(1 - t) / 2, t / 2, t / 2, (1 - t) / 2])


# ---------------------------------------------------------------------------
# quantized Rayleigh-fading Gaussian channel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianQuantConfig:
    pam_points: int = 16
    noise_points: int = 50
    state_points: int = 8000           # cells of the chi-square quantizer
    power: float = 10.0
    feedback_variance: float = 1.0
    noise_halfwidth_sigmas: float = 6.0
    state_tail_mass: float = 1e-6
    output_spacing_factor: float = 2.0  # output lattice step, in noise steps

    def __post_init__(self):
        if self.pam_points < 2 or self.noise_points < 2 or self.state_points < 2:
            raise ValueError("all point counts must be >= 2")
        if self.power <= 0 or self.feedback_variance < 0:
            raise ValueError("need power > 0 and feedback variance >= 0")
        if self.output_spacing_factor <= 0:
            raise ValueError("output_spacing_factor must be positive")


def _gaussian_atoms(sigma, n_points, halfwidth):
    """Equal-spaced quantization of a centered normal; tail mass folded into
    the edge atoms so the pmf is exactly normalized."""
    from scipy import stats

    vals = np.linspace(-halfwidth * sigma, halfwidth * sigma, n_points)
    mids = (vals[:-1] + vals[1:]) / 2.0
    cdf = stats.norm.cdf(mids, scale=sigma)
    probs = np.diff(np.concatenate(([0.0], cdf, [1.0])))
    return vals, probs


_SCATTER_ROWS = 256       # (x, s) law rows filled per bincount


def _snap(v):
    """Nearest integer with half-interval ties to the lower index."""
    return np.ceil(np.asarray(v, float) - 0.5).astype(np.int64)


def _scatter(mean_pos, kernel_off, kernel_pr):
    """The law P(y|x,s) of y = snap(mean_pos[x,s] + kernel atom) over output
    lattice points floor(min) .. ceil(max) + 1 of mean_pos + kernel_off; no
    row reaches the last one or two of them, nor at times the first."""
    lo = int(np.floor(mean_pos.min() + kernel_off.min()))
    hi = int(np.ceil(mean_pos.max() + kernel_off.max())) + 1
    ny = hi - lo + 1
    pos = mean_pos.ravel()
    out = np.empty((pos.size, ny))
    for r0 in range(0, pos.size, _SCATTER_ROWS):
        block = pos[r0:r0 + _SCATTER_ROWS]
        rows = block.size
        # (atoms, rows) flat cell indices: with atoms as the outer axis,
        # bincount adds each cell's masses in kernel order from 0.0
        idx = _snap(block + kernel_off[:, None]) + (np.arange(rows) * ny - lo)
        out[r0:r0 + rows] = np.bincount(
            idx.ravel(), np.repeat(kernel_pr, rows),
            minlength=rows * ny).reshape(rows, ny)
    return out.reshape(mean_pos.shape + (ny,))


def gaussian_quantized_spec(cfg=None):
    """Quantized fading channel Y = S X + N, Z = Y + N_fb.

    Input: M-ary PAM at spacing 2*kappa, kappa = sqrt(3P/(M^2-1)); cost
    b(x) = x^2 with budget P.  State: S^2 is chi-square(1); it is gridded
    uniformly on [0, s2_max] (tail mass < cfg.state_tail_mass folded into
    the last cell), representatives are midpoint square roots, and each
    magnitude cell is split into a +/- sign pair of equal mass so that the
    quadratic distortion d(s, shat) = (s - shat)^2 on the real state is
    well-posed.  Both noises are quantized on equal-spaced +/-6 sigma grids;
    outputs are snapped to the lattice of the channel-noise grid.  The two
    marginal laws are built directly; the joint is never formed.  Each law
    is filled in blocks of _SCATTER_ROWS (x, s) rows, one bincount per
    block, which adds every cell's noise-atom masses in kernel order, so
    the law does not depend on the block size.
    """
    from scipy import stats

    if cfg is None:
        cfg = GaussianQuantConfig()
    m = cfg.pam_points
    kappa = np.sqrt(3.0 * cfg.power / (m * m - 1.0))
    x_vals = (2.0 * np.arange(1, m + 1) - 1.0 - m) * kappa

    s2_max = stats.chi2.isf(cfg.state_tail_mass, df=1)
    edges = np.linspace(0.0, s2_max, cfg.state_points + 1)
    cdf = stats.chi2.cdf(edges, df=1)
    cell = np.diff(cdf)
    cell[-1] += 1.0 - cdf[-1]
    reps = np.sqrt((edges[:-1] + edges[1:]) / 2.0)
    s_vals = np.concatenate((-reps[::-1], reps))
    s_probs = np.concatenate((cell[::-1], cell)) / 2.0

    n_vals, n_probs = _gaussian_atoms(1.0, cfg.noise_points,
                                      cfg.noise_halfwidth_sigmas)
    delta = (n_vals[1] - n_vals[0]) * cfg.output_spacing_factor

    # The signal mean s*x is kept fractional (in output-lattice units) and each
    # noise atom is snapped jointly with it; snapping mean and kernel
    # separately aliases the two lattices and corrupts the law.
    mean_pos = np.outer(x_vals, s_vals) / delta             # (X, S), fractional

    def bin_atoms(vals, probs):
        # merge atoms on a lattice 8x finer than the output step: keeps the
        # atom count bounded without re-introducing aliasing
        off = np.round(vals / delta * 8.0) / 8.0
        uniq, inv = np.unique(off, return_inverse=True)
        return uniq, np.bincount(inv, weights=probs)

    ky, py = bin_atoms(n_vals, n_probs)
    entries_y = m * s_vals.size * (np.ptp(mean_pos) + np.ptp(ky) + 3)
    if cfg.feedback_variance > 0.0:
        fb_vals, fb_probs = _gaussian_atoms(np.sqrt(cfg.feedback_variance),
                                            cfg.noise_points,
                                            cfg.noise_halfwidth_sigmas)
        combo = (n_vals[:, None] + fb_vals[None, :]).ravel()
        combo_pr = np.outer(n_probs, fb_probs).ravel()
        kz, pz = bin_atoms(combo, combo_pr)
    else:
        kz, pz = ky, py
    entries_z = m * s_vals.size * (np.ptp(mean_pos) + np.ptp(kz) + 3)
    if entries_y + entries_z > 10**8:
        raise MemoryGuard(
            f"{int(entries_y + entries_z)} law entries exceed the 1e8 budget")

    law_y = _scatter(mean_pos, ky, py)
    law_z = law_y if (kz is ky) else _scatter(mean_pos, kz, pz)
    return SdmcSpec(state_pmf=s_probs, law_y=law_y, law_z=law_z,
                    distortion=QuadraticDistortion(state_values=s_vals,
                                                   estimate_values=s_vals),
                    cost=x_vals ** 2,
                    labels={"x_values": x_vals.tolist()})


def gaussian_analytic_anchors(power, sigma_fb2=1.0, mc_samples=200_000, seed=0):
    """Continuous-model anchor values (no quantization).

    c_noest and d_max by seeded Monte-Carlo, d_min in closed form, r_min by
    numerical integration of the 2-PAM conditional mutual information over
    the fading state.
    """
    rng = np.random.default_rng(seed)
    s = rng.standard_normal(mc_samples)
    c_noest = float(np.mean(0.5 * np.log2(1.0 + s * s * power)))
    x = rng.normal(0.0, np.sqrt(power), mc_samples)
    d_max = float((1.0 + sigma_fb2) * np.mean(1.0 / (1.0 + x * x + sigma_fb2)))
    r_min, d_min = gaussian_two_pam_analytic(np.sqrt(power), sigma_fb2)
    return {"c_noest": c_noest, "d_max": d_max, "d_min": d_min,
            "r_min": r_min}


def gaussian_two_pam_analytic(amplitude, sigma_fb2=1.0):
    """Continuous-model (rate, distortion) of the antipodal input {-a, +a}:
    rate by integrating the BPSK mutual information over the fading state,
    distortion from the Gaussian MMSE closed form."""
    from scipy import integrate

    gh_x, gh_w = np.polynomial.hermite_e.hermegauss(151)

    def i_bpsk(snr):
        # 1 - E_U log2(1 + exp(-2 snr - 2 sqrt(snr) U)), U ~ N(0,1)
        arg = -2.0 * snr - 2.0 * np.sqrt(snr) * gh_x
        val = np.log1p(np.exp(np.minimum(arg, 700.0))) / np.log(2.0)
        return 1.0 - float(np.dot(gh_w, val)) / np.sqrt(2.0 * np.pi)

    def integrand(s_abs):
        # the standard normal density as scipy.stats.norm.pdf computes it,
        # without its per-call argument checks
        pdf = np.exp(-s_abs ** 2 / 2.0) / np.sqrt(2.0 * np.pi)
        return 2.0 * pdf * i_bpsk(s_abs * s_abs * amplitude ** 2)

    rate, _ = integrate.quad(integrand, 0.0, 10.0, limit=200)
    dist = (1.0 + sigma_fb2) / (1.0 + amplitude ** 2 + sigma_fb2)
    return float(rate), float(dist)


def gaussian_two_pam_point(spec, budget):
    """Best antipodal two-point input {-v, +v} within the cost budget: the
    feasible pair of least expected distortion (the first, on a tie).

    Returns (rate, distortion, pmf).
    """
    m = spec.input_size
    i = np.arange(m // 2)
    pairs = np.zeros((i.size, m))
    pairs[i, i] = pairs[i, m - 1 - i] = 0.5
    est = estimator.build_estimator(spec)
    dist = np.where(spec.cost[m - 1 - i] > budget, np.inf, pairs @ est.cost)
    k = int(np.argmin(dist))
    if dist[k] == np.inf:
        raise ValueError("no antipodal pair satisfies the budget")
    return (solver.conditional_mutual_information(spec, pairs[k]), float(dist[k]),
            pairs[k])
