"""Schmidt decompositions and Renyi entanglement entropies for dense pure
states on qudit chains.

All operations are pure functions; states are immutable once built.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import EntspecError

CLAMP_REL = 1e-14  # coefficients below CLAMP_REL * lambda_1 are treated as zero


class Check(namedtuple("Check", "margin strict", defaults=(False,))):
    """One check: its worst signed margin (None over no rows) and whether it
    passes only above zero."""

    @property
    def ok(self):
        return self.margin is None or (self.margin > 0.0 if self.strict else self.margin >= 0.0)

    def require(self, what):
        """EntspecError naming `what` unless the check passes: for a
        bound that its experiment reports under no check of its own."""
        if not self.ok:
            raise EntspecError(f"check failed: {what}, margin {self.margin}")


def check(pairs, tol=0.0, strict=False):
    """The check `value <= bound + tol` over (value, bound) pairs, with
    margin min(bound + tol - value), NaN when any margin is NaN; it passes at
    >= 0, or only at > 0 when strict, and over no pairs its margin is None
    and it passes."""
    margins = [bound + tol - value for value, bound in pairs]
    return Check(float(np.min(margins)) if margins else None, strict)


def _or_inf(f, *args):
    """f(*args), math.exp or pow, for a cap: inf where that is past float range."""
    try:
        return f(*args)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class PureState:
    """Dense state vector over a chain of qudits with per-site dimensions."""

    dims: tuple
    amps: np.ndarray
    norm: float = field(init=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if any(d < 2 for d in dims):
            raise ValueError("site dimensions must be >= 2")
        amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        if amps.size != math.prod(dims):
            raise ValueError("amplitude length does not match prod(dims)")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "norm", float(np.linalg.norm(amps)))

    @property
    def n_sites(self):
        return len(self.dims)


@dataclass(frozen=True)
class Cut:
    """The bond after site k - 1 of an n-site chain: sites 0..k-1 form the
    left part (A), the rest the right part (B)."""

    k: int
    n: int

    def __post_init__(self):
        if not 1 <= self.k < self.n:
            raise EntspecError(f"cut {self.k} is no bond of a {self.n}-site chain: "
                               f"it must lie in 1..{self.n - 1}")

    @staticmethod
    def of(left, n_sites):
        """The cut whose left part is `left`; EntspecError unless that is the
        sites 0..k-1."""
        left = [int(i) for i in left]
        if left != list(range(len(left))):
            raise EntspecError(f"left sites {left} are not 0..k-1")
        return Cut(len(left), n_sites)


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Descending Schmidt coefficients across one cut; source_norm is the
    norm of the decomposed state."""

    coeffs: np.ndarray
    source_norm: float

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.size and (np.diff(c) > 1e-12 * max(1.0, c[0])).any():
            raise ValueError("coefficients must be descending")
        object.__setattr__(self, "coeffs", c)
        total = math.sqrt((c**2).sum())
        if abs(total - self.source_norm) > 1e-10 * max(1.0, self.source_norm):
            raise ValueError("source_norm disagrees with coefficients")

    @property
    def rank(self):
        c = self.coeffs
        if c.size == 0 or c[0] <= 0:
            return 0
        return int(np.count_nonzero(c > CLAMP_REL * c[0]))


def schmidt_decompose(state, cut):
    """Schmidt coefficients of `state` across `cut`: the SVD of its
    amplitudes with the left sites as the row index."""
    if cut.n != state.n_sites:
        raise EntspecError(f"cut of {cut.n} sites on a {state.n_sites}-site state")
    if state.norm == 0 or not state.amps.any():
        raise EntspecError("cannot decompose the zero state")
    mat = state.amps.reshape(math.prod(state.dims[: cut.k]), -1)
    s = np.linalg.svd(mat, compute_uv=False)
    return SchmidtSpectrum(s, state.norm)


def _clamped(coeffs):
    c = np.asarray(coeffs, dtype=float)
    if c.size == 0:
        return c
    return np.where(c > CLAMP_REL * c[0], c, 0.0)


def renyi_entropies(spec, alphas):
    """Renyi entanglement entropies of every order in `alphas` from one
    normalized spectrum, which is clamped and checked once.

    (1/(1-alpha)) log sum lambda^(2 alpha); alpha=1 is the von Neumann
    limit, alpha=inf is -log lambda_1^2. Natural logarithm throughout.
    """
    lam = _clamped(spec.coeffs)
    total = float((lam**2).sum())
    if abs(total - 1.0) > 1e-8:
        raise EntspecError(f"spectrum not normalized: sum lambda^2 = {total}")
    alphas = [float(alpha) for alpha in alphas]
    for alpha in alphas:
        if not alpha > 0:
            raise EntspecError(f"Renyi order alpha = {alpha}, not > 0")
    lam = lam[lam > 0]
    p = lam**2
    out = []
    for alpha in alphas:
        if alpha == np.inf:
            out.append(float(-np.log(p.max())))
        elif abs(1.0 - alpha) < 1e-9:
            out.append(float(-(p * np.log(p)).sum()))
        else:
            out.append(float(np.log((lam ** (2.0 * alpha)).sum()) / (1.0 - alpha)))
    return out


def renyi_entropy(spec, alpha):
    """Renyi entanglement entropy of order alpha from a normalized spectrum
    (see renyi_entropies)."""
    return renyi_entropies(spec, [alpha])[0]
