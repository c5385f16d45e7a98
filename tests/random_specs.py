"""Random channel specs, and input pmfs, shared by the test modules."""

import numpy as np

from capdist.channel import SdmcSpec


def random_spec(rng, nx=3, ns=3, ny=3, nz=3):
    """A joint-law spec with Dirichlet state pmf and law rows, a random
    distortion matrix with zero diagonal and a uniform random cost."""
    state = rng.dirichlet(np.ones(ns))
    law = rng.dirichlet(np.ones(ny * nz), size=(nx, ns)).reshape(nx, ns, ny, nz)
    d = rng.random((ns, ns))
    np.fill_diagonal(d, 0.0)
    return SdmcSpec(state_pmf=state, law=law, distortion=d,
                    cost=rng.random(nx))


def dueck_input_pmf(t):
    """Input pmf of `examples.dueck_reduction_spec` over (x1, x2) with
    P(X1 != X2) = t, symmetric otherwise."""
    return np.array([(1 - t) / 2, t / 2, t / 2, (1 - t) / 2])
