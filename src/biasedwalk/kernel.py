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

These weights are written down once, in ``move_table``: a table of move
widths for each of the three walks, with one row per kind of site.  The
one-step laws below, the exact propagators and the simulator all read
their move probabilities from it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

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


def _integer(x) -> bool:
    """Whether x is an integer, a numpy one included, and not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _check_site(
    p: ModelParams, v, *, orthant: bool, name: str = "site", reach: int = 0
) -> State:
    """v as a tuple of ints, once it is checked to have d integer
    coordinates, none negative on the orthant, that stay in the int64 range
    for reach steps; else ValueError naming it."""
    if len(v) != p.dim:
        raise ValueError(f"{name} has {len(v)} coordinates, expected {p.dim}")
    if not all(_integer(c) for c in v):
        raise ValueError(f"{name} must have integer coordinates, got {v}")
    if orthant and any(c < 0 for c in v):
        raise ValueError(f"{name} must lie in Z_+^{p.dim}, got {v}")
    v = tuple(int(c) for c in v)
    if any(abs(c) + reach >= 2**63 for c in v):
        raise ValueError(f"{name} must stay in the int64 range for {reach} steps, got {v}")
    return v


def kappa(v: State) -> int:
    """Number of zero coordinates of a lattice site."""
    return sum(1 for c in v if c == 0)


def move_row(walk: str, coords):
    """Row of ``move_table(p, walk)`` for the sites with the given
    coordinates, one int or integer array per axis: sum_i [c_i = 0] 2^i
    (reflected), sum_i (sign(c_i) + 1) 3^i (signed) or 0 (drifted), shaped
    like a coordinate."""
    if walk == "reflected":
        return sum((c == 0) << i for i, c in enumerate(coords))
    if walk == "signed":
        return sum((np.sign(c) + 1) * 3**i for i, c in enumerate(coords))
    return np.zeros_like(coords[0])


@lru_cache(maxsize=16)
def move_table(p: ModelParams, walk: str) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalised move widths of one walk, a row per kind of site, and
    each row's weight D: from a site of row r (see move_row) the walk makes
    move j, a step of -1 (even j) or +1 (odd j) on coordinate j >> 1, with
    probability widths[r, j] / D[r].  The arrays are read-only.

    ``"signed"`` is the walk on Z^d, with a row per sign pattern: width lam
    inward and 1 otherwise.  ``"reflected"`` is the chain of absolute
    values, with a row per zero pattern: both signed moves off a zero
    coordinate fold onto its up move, of width 2, and its down move has
    width 0.  ``"drifted"`` is the free comparison walk, with the one row
    (lam, 1, lam, 1, ...) and D = d * (1 + lam).
    """
    base = {"reflected": 2, "signed": 3, "drifted": 1}[walk]
    digit = np.arange(base**p.dim)[:, None] // base ** np.arange(p.dim) % base
    # one site of each row, in row order
    widths, big_d = _rows(p, walk, 1 - digit if walk == "reflected" else digit - 1)
    widths.flags.writeable = big_d.flags.writeable = False
    return widths, big_d


def _rows(p: ModelParams, walk: str, sites) -> tuple[np.ndarray, np.ndarray]:
    """The move_table rows of the sites, an integer array of shape (k, d)."""
    d, lam = p.dim, p.lam
    # the drifted walk moves as the signed walk does off every hyperplane
    c = np.ones_like(sites) if walk == "drifted" else np.asarray(sites)
    zero = c == 0
    if walk == "reflected":
        down, up = np.where(zero, 0.0, lam), np.where(zero, 2.0, 1.0)
    else:
        down, up = np.where(c > 0, lam, 1.0), np.where(c < 0, lam, 1.0)
    kap = zero.sum(axis=1)
    big_d = d + kap + lam * (d - kap)
    if walk == "drifted":
        big_d = np.full(len(c), d * (1.0 + lam))
    return np.stack([down, up], axis=2).reshape(len(c), 2 * d), big_d


def _site_row(p: ModelParams, walk: str, v) -> tuple[State, np.ndarray, float]:
    """Site v as a tuple of ints, once it is checked (see _check_site), on
    the orthant for the reflected chain; its move_table row and the row's
    weight D."""
    v = _check_site(p, v, orthant=walk == "reflected")
    widths, big_d = _rows(p, walk, [v])
    return v, widths[0], float(big_d[0])


def _one_step(p: ModelParams, walk: str, v: State) -> StepDistribution:
    """One-step law of the walk from site v, read from its move_table row;
    moves of probability 0 are left out."""
    v, widths, big_d = _site_row(p, walk, v)
    dist: StepDistribution = {}
    for j, w in enumerate(widths.tolist()):
        prob = w / big_d
        if prob > 0.0:
            i = j >> 1
            dist[v[:i] + (v[i] + (j & 1) * 2 - 1,) + v[i + 1 :]] = prob
    return dist


def full_kernel(p: ModelParams, v: State) -> StepDistribution:
    """One-step distribution of the walk on Z^d from site v.

    Inward neighbours (lattice norm drops by one) get mass lam/D, all
    others 1/D.  Entries with zero probability (inward moves at lam = 0)
    are omitted.
    """
    return _one_step(p, "signed", v)


def reflected_kernel(p: ModelParams, y: State) -> StepDistribution:
    """One-step distribution of the coordinate-wise absolute-value chain
    on Z_+^d from site y.

    A zero coordinate steps to 1 with probability 2/D (both signed moves
    fold onto the same target); a positive coordinate steps up with
    probability 1/D and down with probability lam/D.
    """
    return _one_step(p, "reflected", y)


def drift(p: ModelParams, y: State) -> np.ndarray:
    """Expected one-step displacement E[|X_{n+1}| - |X_n|] of the reflected
    chain at y: coordinate i contributes 2/D on the boundary (y_i = 0) and
    (1-lam)/D off it."""
    _, widths, big_d = _site_row(p, "reflected", y)
    return (widths[1::2] - widths[0::2]) / big_d


def drifted_kernel(p: ModelParams, z: State) -> StepDistribution:
    """One-step distribution of the free comparison walk Z on Z^d.

    Z ignores the boundary entirely: from any site it steps +e_i with
    probability 1/(d*(1+lam)) and -e_i with probability lam/(d*(1+lam)).
    It stochastically dominates the reflected chain coordinate-wise from
    above and, up to a polynomial factor, from below.
    """
    return _one_step(p, "drifted", z)
