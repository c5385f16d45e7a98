"""Capacity-distortion-cost tradeoffs of state-dependent memoryless channels.

Modules:
  channel    -- probability primitives, channel specs, JSON I/O, the
                single-user view of each broadcast receiver
  estimator  -- optimal symbol-wise state estimator, D_min/D_trivial
  solver     -- conditional mutual information, modified Blahut-Arimoto,
                frontier sweeps, baselines, no-tradeoff decision (psi* derived)
  bcregions  -- broadcast regions (degraded, outer bound, closed forms, CD = C x D)
  verify     -- Monte-Carlo, brute-force and exhaustive-search oracles
  examples   -- paper-style example builders (binary, erasure, Dueck, Gaussian)
  cli        -- command-line interface
"""

from .channel import QuadraticDistortion, SdmbcSpec, SdmcSpec, receiver_spec
from .estimator import (EstimatorTable, build_estimator,
                        d_min, d_trivial, expected_distortion)
from .solver import (BaConfig, TradeoffPoint, baseline_ts,
                     conditional_mutual_information, no_tradeoff_check,
                     solve_fixed_mu, sweep_frontier)
from .bcregions import (binary_bc_region, degraded_region, dueck_dmin,
                        dueck_distortion, dueck_inner, dueck_outer,
                        erasure_bc_distortion_region, flipped_bc_region,
                        is_physically_degraded, outer_bound_samples,
                        product_region_check, region_samples,
                        upper_concave_hull)
from .verify import (TrialReport, brute_force_tradeoff,
                     exhaustive_estimator_search, simulate_distortion)
from . import errors, examples

__version__ = "0.1.0"
