"""Schmidt decompositions, Renyi entanglement entropies, and rank truncation
for dense pure states on qudit chains.

All operations are pure functions; states are immutable once built.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    BadAlphaError,
    BadCutError,
    UnnormalizedError,
    ZeroStateError,
)

CLAMP_REL = 1e-14  # coefficients below CLAMP_REL * lambda_1 are treated as zero


class Check(namedtuple("Check", "margin strict", defaults=(False,))):
    """One check: its worst signed margin (None over no rows) and whether it
    passes only above zero."""

    @property
    def ok(self):
        return self.margin is None or (self.margin > 0.0 if self.strict else self.margin >= 0.0)


def check(pairs, tol=0.0, strict=False):
    """The check `value <= bound + tol` over (value, bound) pairs, with
    margin min(bound + tol - value), NaN when any margin is NaN; it passes at
    >= 0, or only at > 0 when strict, and over no pairs its margin is None
    and it passes."""
    margins = [bound + tol - value for value, bound in pairs]
    return Check(float(np.min(margins)) if margins else None, strict)


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

    def tensor(self):
        return self.amps.reshape(self.dims)


@dataclass(frozen=True)
class Cut:
    """Bipartition of site indices into left (A) and right (B)."""

    left_sites: frozenset
    right_sites: frozenset

    @staticmethod
    def of(left, n_sites):
        left = frozenset(int(i) for i in left)
        return Cut(left, frozenset(range(n_sites)) - left)

    def validate(self, n_sites):
        allsites = frozenset(range(n_sites))
        if (
            not self.left_sites
            or not self.right_sites
            or self.left_sites & self.right_sites
            or (self.left_sites | self.right_sites) != allsites
        ):
            raise BadCutError(f"invalid bipartition of {n_sites} sites")


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Descending Schmidt coefficients across one cut.

    left_vectors/right_vectors (when retained) hold the orthonormal Schmidt
    vectors as columns; source_norm is the norm of the decomposed state.
    """

    coeffs: np.ndarray
    source_norm: float
    left_vectors: Optional[np.ndarray] = None
    right_vectors: Optional[np.ndarray] = None

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.size and (np.diff(c) > 1e-12 * max(1.0, c[0])).any():
            raise ValueError("coefficients must be descending")
        object.__setattr__(self, "coeffs", c)
        total = math.sqrt((c**2).sum())
        if abs(total - self.source_norm) > 1e-10 * max(1.0, self.source_norm):
            raise ValueError("source_norm disagrees with coefficients")
        for vecs in (self.left_vectors, self.right_vectors):
            if vecs is not None:
                gram = vecs.conj().T @ vecs
                if np.max(np.abs(gram - np.eye(gram.shape[0]))) > 1e-10:
                    raise ValueError("retained Schmidt vectors must be orthonormal")

    @property
    def rank(self):
        c = self.coeffs
        if c.size == 0 or c[0] <= 0:
            return 0
        return int(np.count_nonzero(c > CLAMP_REL * c[0]))


def schmidt_decompose(state, cut, keep_vectors=False):
    """Schmidt coefficients of `state` across `cut`.

    The amplitude tensor is permuted so the left sites form the row index
    (site order preserved within each side), then SVD'd; non-contiguous
    cuts are therefore handled by the same path.
    """
    n = state.n_sites
    cut.validate(n)
    if state.norm == 0 or not state.amps.any():
        raise ZeroStateError("cannot decompose the zero state")
    left = sorted(cut.left_sites)
    right = sorted(cut.right_sites)
    perm = left + right
    tens = state.tensor().transpose(perm)
    dl = math.prod(state.dims[i] for i in left)
    dr = math.prod(state.dims[i] for i in right)
    mat = tens.reshape(dl, dr)
    if keep_vectors:
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        # vh rows are the right Schmidt vectors; store them as columns so
        # state = sum_s coeffs[s] * kron(left[:, s], right[:, s])
        return SchmidtSpectrum(s, state.norm, left_vectors=u, right_vectors=vh.T)
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
        raise UnnormalizedError(f"sum lambda^2 = {total}")
    alphas = [float(alpha) for alpha in alphas]
    for alpha in alphas:
        if not alpha > 0:
            raise BadAlphaError(f"alpha = {alpha}")
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


def truncate_rank(spec, D):
    """The spectrum of the top D coefficients and their Schmidt vectors."""
    D = int(D)
    if D < 1:
        raise ValueError("D must be >= 1")
    kept = np.asarray(spec.coeffs, dtype=float)[:D]
    lv = spec.left_vectors[:, :D] if spec.left_vectors is not None else None
    rv = spec.right_vectors[:, :D] if spec.right_vectors is not None else None
    return SchmidtSpectrum(kept, float(np.sqrt(np.sum(kept**2))), lv, rv)
