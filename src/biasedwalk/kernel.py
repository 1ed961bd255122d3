"""Transition kernels for the outward-biased walk on the integer lattice.

The model lives on Z^d with a bias parameter lam in [0, 1).  Each edge at
lattice distance n from the origin carries conductance lam^(-n), so from a
site v with kappa(v) zero coordinates the walk moves

    inward   (|u| = |v| - 1)  with probability lam / D(v),
    outward  (|u| = |v| + 1)  with probability 1 / D(v),

where D(v) = d + kappa(v) + lam * (d - kappa(v)) and |v| = sum_i |v_i|.
At the origin every one of the 2d neighbours is reached with probability
1/(2d); the general formula already covers this case because no inward
edge exists there.

Because the coordinate signs never flip, the vector of absolute values
|X_n| = (|X_n^1|, ..., |X_n^d|) is itself a Markov chain on Z_+^d (the
"reflected" chain).  Most quantitative work in this package is phrased in
terms of that chain, plus a translation-invariant comparison walk Z with
the same inward/outward step weights but no boundary interaction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# A lattice site is a plain tuple of ints; distributions over single steps
# map target sites to strictly positive probabilities.
State = tuple[int, ...]
StepDistribution = dict[State, float]


@dataclass(frozen=True)
class ModelParams:
    """Dimension and bias of the walk.

    Attributes:
        dim: lattice dimension d >= 1.
        lam: bias parameter in [0, 1).  lam = 0 gives the fully biased
            walk that never steps toward the origin; lam -> 1 approaches
            the simple random walk.
    """

    dim: int
    lam: float

    def __post_init__(self) -> None:
        if not isinstance(self.dim, int) or isinstance(self.dim, bool) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        if not 0.0 <= self.lam < 1.0:
            raise ValueError(f"lam must lie in [0, 1), got {self.lam!r}")

    @property
    def s0(self) -> float:
        """Kink location (1/2) * ln(lam) of the limiting log-mgf; -inf at lam = 0."""
        return 0.5 * math.log(self.lam) if self.lam > 0 else -math.inf

    @property
    def rho(self) -> float:
        """Spectral-radius factor 2*sqrt(lam)/(1+lam) governing return probabilities."""
        return 2.0 * math.sqrt(self.lam) / (1.0 + self.lam)

    @property
    def speed(self) -> np.ndarray:
        """Almost-sure limit of |X_n|/n: every coordinate escapes at rate
        (1-lam)/(d*(1+lam))."""
        return np.full(self.dim, (1.0 - self.lam) / (self.dim * (1.0 + self.lam)))


def kappa(v: State) -> int:
    """Number of zero coordinates of a lattice site."""
    return sum(1 for c in v if c == 0)


def _total_weight(p: ModelParams, kap: int) -> float:
    """Normalising weight D = d + kappa + lam*(d - kappa) at a site with
    kap zero coordinates."""
    return p.dim + kap + p.lam * (p.dim - kap)


def full_kernel(p: ModelParams, v: State) -> StepDistribution:
    """One-step distribution of the walk on Z^d from site v.

    Inward neighbours (lattice norm drops by one) get mass lam/D, all
    others 1/D.  Entries with zero probability (inward moves at lam = 0)
    are omitted.
    """
    if len(v) != p.dim:
        raise ValueError(f"site has {len(v)} coordinates, expected {p.dim}")
    big_d = _total_weight(p, kappa(v))
    dist: StepDistribution = {}
    for i in range(p.dim):
        for step in (-1, 1):
            u = v[:i] + (v[i] + step,) + v[i + 1 :]
            inward = abs(u[i]) < abs(v[i])
            prob = p.lam / big_d if inward else 1.0 / big_d
            if prob > 0.0:
                dist[u] = prob
    return dist


def reflected_kernel(p: ModelParams, y: State) -> StepDistribution:
    """One-step distribution of the coordinate-wise absolute-value chain
    on Z_+^d from site y.

    A zero coordinate steps to 1 with probability 2/D (both signed moves
    fold onto the same target); a positive coordinate steps up with
    probability 1/D and down with probability lam/D.
    """
    if len(y) != p.dim:
        raise ValueError(f"site has {len(y)} coordinates, expected {p.dim}")
    if any(c < 0 for c in y):
        raise ValueError(f"reflected chain needs nonnegative coordinates, got {y}")
    big_d = _total_weight(p, kappa(y))
    dist: StepDistribution = {}
    for i in range(p.dim):
        up = y[:i] + (y[i] + 1,) + y[i + 1 :]
        if y[i] == 0:
            dist[up] = 2.0 / big_d
        else:
            dist[up] = 1.0 / big_d
            if p.lam > 0.0:
                down = y[:i] + (y[i] - 1,) + y[i + 1 :]
                dist[down] = p.lam / big_d
    return dist


def drift(p: ModelParams, y: State) -> np.ndarray:
    """Expected one-step displacement E[|X_{n+1}| - |X_n|] of the reflected
    chain at y: coordinate i contributes 2/D on the boundary (y_i = 0) and
    (1-lam)/D off it."""
    if len(y) != p.dim:
        raise ValueError(f"site has {len(y)} coordinates, expected {p.dim}")
    if any(c < 0 for c in y):
        raise ValueError(f"drift is defined on Z_+^d, got {y}")
    big_d = _total_weight(p, kappa(y))
    return np.array(
        [2.0 / big_d if c == 0 else (1.0 - p.lam) / big_d for c in y]
    )


def drifted_kernel(p: ModelParams, z: State) -> StepDistribution:
    """One-step distribution of the free comparison walk Z on Z^d.

    Z ignores the boundary entirely: from any site it steps +e_i with
    probability 1/(d*(1+lam)) and -e_i with probability lam/(d*(1+lam)).
    It stochastically dominates the reflected chain coordinate-wise from
    above and, up to a polynomial factor, from below.
    """
    if len(z) != p.dim:
        raise ValueError(f"site has {len(z)} coordinates, expected {p.dim}")
    denom = p.dim * (1.0 + p.lam)
    dist: StepDistribution = {}
    for i in range(p.dim):
        dist[z[:i] + (z[i] + 1,) + z[i + 1 :]] = 1.0 / denom
        if p.lam > 0.0:
            dist[z[:i] + (z[i] - 1,) + z[i + 1 :]] = p.lam / denom
    return dist
