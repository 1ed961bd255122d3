"""Biased nearest-neighbour random walks on the integer lattice.

The package covers one model family: the walk on Z^d whose edge at lattice
distance n from the origin has conductance lam^(-n), for bias lam in [0, 1).
Four layers are provided:

- ``kernel``: exact one-step transition laws (full walk, reflected chain on
  the nonnegative orthant, drifted comparison walk) and model constants.
- ``simulate``: deterministic vectorised Monte Carlo for speed, fluctuation,
  martingale, and boundary-occupation statistics.
- ``exact``: finite-horizon distributions by dynamic programming, a
  rational-arithmetic oracle for them, log moment generating
  functions, return probabilities, ballot-style path counts, and
  stochastic-domination checks.
- ``ldp``: the limiting scaled cumulant generating function, its Legendre
  transform (the large-deviation rate function) through one scalar root
  plus closed forms in low dimension, the diffusive covariance structure,
  and path-space rate functionals.

``cli`` exposes all of it as the ``biasedwalk`` command.
"""

from __future__ import annotations

from .errors import ConvergenceError, ResourceBudgetError
from .kernel import (
    ModelParams,
    State,
    StepDistribution,
    drift,
    drifted_kernel,
    full_kernel,
    kappa,
    reflected_kernel,
)

__all__ = [
    "ConvergenceError",
    "ModelParams",
    "ResourceBudgetError",
    "State",
    "StepDistribution",
    "drift",
    "drifted_kernel",
    "full_kernel",
    "kappa",
    "reflected_kernel",
]

__version__ = "0.1.0"
