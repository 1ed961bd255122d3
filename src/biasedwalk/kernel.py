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

These weights are written down once, in ``_moves``: each walk's move
widths and D at a site, or at many sites given as an array per axis.  The
one-step laws below, the exact propagators and the simulator's table all
read their move probabilities from it.
"""

from __future__ import annotations

import math
import numbers
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
        if not _integer(self.dim) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        if not _real(self.lam) or not 0.0 <= self.lam < 1.0:
            raise ValueError(f"lam must lie in [0, 1), got {self.lam!r}")
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "lam", float(self.lam))

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


def _real(x) -> bool:
    """Whether x is a real number, a numpy one included, and not a bool or a
    string: with _integer, the package's one rule for numeric input."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _check_site(
    p: ModelParams, v, *, orthant: bool, name: str = "site", reach: int = 0
) -> State:
    """v as a tuple of ints, once it is checked to have d integer
    coordinates, none negative on the orthant, that stay in the int64 range
    for reach steps; else ValueError naming it."""
    if not hasattr(v, "__len__") or len(v) != p.dim:
        raise ValueError(f"{name} must have {p.dim} coordinates, got {v!r}")
    if not all(_integer(c) for c in v):
        raise ValueError(f"{name} must have integer coordinates, got {v}")
    if orthant and any(c < 0 for c in v):
        raise ValueError(f"{name} must lie in Z_+^{p.dim}, got {v}")
    v = tuple(int(c) for c in v)
    if any(abs(c) + reach >= 2**63 for c in v):
        raise ValueError(f"{name} must stay in the int64 range for {reach} steps, got {v}")
    return v


def _finite_rows(name: str, rows, dim: int) -> np.ndarray:
    """rows as a new float array of shape (k, dim), each scalar row taken
    as one coordinate and an empty sequence as no rows; ValueError naming
    it unless every row has dim coordinates, all real numbers (see _real)
    that are finite doubles.  A float or integer array is taken whole, with
    no check per entry; one vector v is _finite_rows(name, [v], dim)[0]."""
    if not (isinstance(rows, np.ndarray) and rows.dtype.kind in "fiu"):
        rows = np.array(rows, dtype=object)
        for x in rows.flat:
            if not _real(x):
                raise ValueError(f"{name} entries must be real numbers, got {x!r}")
    try:
        v = np.array(rows, dtype=float)
    except OverflowError:
        raise ValueError(f"{name} entries must lie within double range") from None
    v = v.reshape(-1, 1 if v.size else dim) if v.ndim == 1 else v
    if v.shape[1:] != (dim,):
        raise ValueError(f"{name} must have {dim} coordinates, got shape {v.shape[1:]}")
    finite = np.isfinite(v).all(axis=1)
    if not finite.all():
        raise ValueError(f"{name} must be finite, got {v[~finite][0].tolist()}")
    return v


def kappa(v: State) -> int:
    """Number of zero coordinates of a lattice site."""
    if not hasattr(v, "__iter__"):
        raise ValueError(f"kappa: site must be a sequence of coordinates, got {v!r}")
    if not all(_integer(c) for c in v):
        raise ValueError(f"kappa: site must have integer coordinates, got {v!r}")
    return sum(1 for c in v if c == 0)


def _moves(p: ModelParams, walk: str, coords) -> tuple[list[tuple], float | np.ndarray]:
    """Move widths of the walk at the sites with the given coordinates, one
    int or int64 array per axis, as a (down, up) pair per axis, and the
    sites' weight D: from a site the walk steps -1 (down) or +1 (up) on axis
    i with probability width / D.  ``"signed"`` is the walk on Z^d: width
    lam inward and 1 otherwise.  ``"reflected"`` is the chain of absolute
    values: both signed moves off a zero coordinate fold onto its up move,
    of width 2, and its down move has width 0.  ``"drifted"`` is the free
    comparison walk: widths (lam, 1) and D = d * (1 + lam) at every site."""
    d, lam = p.dim, p.lam
    if walk == "drifted":
        # the signed walk's widths off every hyperplane, at every site
        widths = [(np.full(np.shape(c), lam), np.ones(np.shape(c))) for c in coords]
        return widths, d * (1.0 + lam)
    zero = [c == 0 for c in coords]
    if walk == "reflected":
        widths = [(np.where(z, 0.0, lam), np.where(z, 2.0, 1.0)) for z in zero]
    else:
        widths = [(np.where(c > 0, lam, 1.0), np.where(c < 0, lam, 1.0)) for c in coords]
    kap = sum(zero)
    return widths, d + kap + lam * (d - kap)


def _one_step(p: ModelParams, walk: str, v) -> StepDistribution:
    """One-step law of the walk from site v, once it is checked (see
    _check_site), on the orthant for the reflected chain; moves of
    probability 0 are left out."""
    v = _check_site(p, v, orthant=walk == "reflected")
    widths, big_d = _moves(p, walk, v)
    dist: StepDistribution = {}
    for i, pair in enumerate(widths):
        for step, w in zip((-1, 1), pair):
            prob = float(w) / float(big_d)
            if prob > 0.0:
                dist[v[:i] + (v[i] + step,) + v[i + 1 :]] = prob
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
    widths, big_d = _moves(p, "reflected", _check_site(p, y, orthant=True))
    return np.array([up - down for down, up in widths]) / float(big_d)


def drifted_kernel(p: ModelParams, z: State) -> StepDistribution:
    """One-step distribution of the free comparison walk Z on Z^d.

    Z ignores the boundary entirely: from any site it steps +e_i with
    probability 1/(d*(1+lam)) and -e_i with probability lam/(d*(1+lam)).
    It stochastically dominates the reflected chain coordinate-wise from
    above and, up to a polynomial factor, from below.
    """
    return _one_step(p, "drifted", z)
