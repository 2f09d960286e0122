"""Spectral entangling strength: heuristic lower bounds by product-state
search, and proved upper bounds from the operator-Schmidt split and from
the weight sum_j |J_j| of a unit-norm term decomposition.

The exact value is a concave-roof optimization (NP-hard in general), so
every output is labeled lower/upper; the pair is reported as coinciding
only when they agree within 1e-6.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .spectra import check

CONVERGENCE_TOL = 1e-8


def _opnorm(m):
    return float(np.linalg.norm(np.asarray(m, dtype=complex), 2))


def _operator_schmidt(matrix, da, db):
    """Operator-Schmidt split matrix = sum_k s_k E_k (x) F_k on A x B.

    Returns the stacks (s_k, E_k, F_k) over the s_k >= 1e-14 s_1, largest
    first; the E_k and the F_k are each Hilbert-Schmidt orthonormal.
    """
    r = matrix.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)
    u, s, vh = np.linalg.svd(r, full_matrices=False)
    keep = int(np.sum(s >= 1e-14 * s[0]))
    return s[:keep], u[:, :keep].T.reshape(keep, da, da), vh[:keep].reshape(keep, db, db)


@dataclass(frozen=True)
class BipartiteOperator:
    """Dense operator on A x B, with the weight sum_j |J_j| of a unit-norm
    term decomposition sum_j J_j A_j (x) B_j of it, or None.

    Only from_terms sets weight, from the terms the matrix is summed from.
    """

    dims_a: tuple
    dims_b: tuple
    matrix: np.ndarray
    weight: Optional[float] = field(default=None, init=False)

    def __post_init__(self):
        dims_a = tuple(int(d) for d in self.dims_a)
        dims_b = tuple(int(d) for d in self.dims_b)
        da = int(np.prod(dims_a))
        db = int(np.prod(dims_b))
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (da * db, da * db):
            raise ValueError("matrix shape does not match dims_a x dims_b")
        object.__setattr__(self, "dims_a", dims_a)
        object.__setattr__(self, "dims_b", dims_b)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_terms(cls, dims_a, dims_b, terms):
        """sum_j J_j A_j (x) B_j, summed in term order with each J_j as given,
        and its weight sum(|J_j|), reading each term of `terms` once; every
        factor must have unit operator norm."""
        d = int(np.prod(dims_a)) * int(np.prod(dims_b))
        mat = np.zeros((d, d), dtype=complex)

        def add(j, a, b):
            if abs(_opnorm(a) - 1.0) > 1e-8 or abs(_opnorm(b) - 1.0) > 1e-8:
                raise ValueError("term factors must have unit operator norm")
            np.add(mat, j * np.kron(a, b), out=mat)
            return abs(complex(j))

        # sum(), not a += loop: from Python 3.12 on they round floats apart
        weight = float(sum(add(*term) for term in terms))
        op = cls(dims_a, dims_b, mat)
        object.__setattr__(op, "weight", weight)
        return op

    @property
    def dim_a(self):
        return int(np.prod(self.dims_a))

    @property
    def dim_b(self):
        return int(np.prod(self.dims_b))

    def as_tensor(self):
        """matrix[(a,b),(a',b')] -> view [a, b, a', b']."""
        da, db = self.dim_a, self.dim_b
        return self.matrix.reshape(da, db, da, db)


@dataclass(frozen=True)
class SeEstimate:
    """A bracketing pair: lower is achieved by a product-state witness, upper is proved."""

    lower: float
    upper: float
    unconverged: int  # ascent starts that ran out of iterations before CONVERGENCE_TOL

    @property
    def coincides(self):
        return self.upper - self.lower < 1e-6


def bracket_check(estimates):
    """lower <= upper + 1e-9 on every estimate: no witness beats the proved bound.
    Paper: the spectral-entangling strength, bounded below by every product-state witness."""
    return check([(e.lower, e.upper) for e in estimates], tol=1e-9)


def operator_schmidt_upper(op):
    """Upper bound sum_s sigma_s ||E_s||op ||F_s||op from the reshuffled SVD.

    Any sum of product terms with unit-norm factors bounds the strength by
    its absolute coefficient sum; the reshuffle SVD supplies one such sum.
    The norms of all E_s, and of all F_s, come from one stacked SVD each;
    the terms are summed in order.
    """
    s, e, f = _operator_schmidt(op.matrix, op.dim_a, op.dim_b)
    norms_e = np.linalg.svd(e, compute_uv=False).max(axis=-1)
    norms_f = np.linalg.svd(f, compute_uv=False).max(axis=-1)
    return float(sum(s * norms_e * norms_f))


def best_upper(op):
    """Tightest available proved upper bound: the operator-Schmidt one, or
    the term weight where that is less."""
    upper = operator_schmidt_upper(op)
    return upper if op.weight is None else min(upper, op.weight)


def _contract(phi4, x, y):
    """phi4 applied to the product state x (x) y, as a (A anc) x (B anc) matrix."""
    da, db = phi4.shape[0], phi4.shape[1]
    return np.einsum("abcd,ce,df->aebf", phi4, x, y).reshape(da * x.shape[1], db * y.shape[1])


def _ascend(phi4, x, y, iterations):
    """Alternating maximization of the Schmidt-coefficient sum.

    Each half-step linearizes the nuclear norm at the current point via its
    SVD dual certificate and solves the linear problem exactly, so the
    objective never decreases. Returns (objective, x, y, converged), where
    converged says the gain fell below CONVERGENCE_TOL before `iterations`
    ran out.
    """
    da, db = phi4.shape[0], phi4.shape[1]
    aa, bb = x.shape[1], y.shape[1]
    obj = -np.inf
    converged = False
    for _ in range(iterations):
        psi = _contract(phi4, x, y)
        u, s, vh = np.linalg.svd(psi, full_matrices=False)
        new_obj = float(np.sum(s))
        w4 = (u @ vh).reshape(da, aa, db, bb)
        g = np.einsum("aebf,abcd,df->ce", w4.conj(), phi4, y)
        gn = np.linalg.norm(g)
        if gn > 1e-300:
            x = g.conj() / gn
        psi = _contract(phi4, x, y)
        u, s, vh = np.linalg.svd(psi, full_matrices=False)
        w4 = (u @ vh).reshape(da, aa, db, bb)
        h = np.einsum("aebf,abcd,ce->df", w4.conj(), phi4, x)
        hn = np.linalg.norm(h)
        if hn > 1e-300:
            y = h.conj() / hn
        if new_obj - obj < CONVERGENCE_TOL:
            converged = True
            break
        obj = new_obj
    psi = _contract(phi4, x, y)
    obj = float(np.sum(np.linalg.svd(psi, compute_uv=False)))
    return obj, x, y, converged


def _seed_states(rng, da, db, aa, bb, seeds):
    """Random unit seeds plus two deterministic ones (basis and uniform)."""
    out = []
    for _ in range(seeds):
        x = rng.standard_normal((da * aa, 2)) @ np.array([1, 1j])
        y = rng.standard_normal((db * bb, 2)) @ np.array([1, 1j])
        out.append((x.reshape(da, aa), y.reshape(db, bb)))
    e = np.zeros((da, aa), dtype=complex)
    e[0, 0] = 1.0
    f = np.zeros((db, bb), dtype=complex)
    f[0, 0] = 1.0
    out.append((e, f))
    u = np.zeros((da, aa), dtype=complex)
    u[:, 0] = 1.0
    v = np.zeros((db, bb), dtype=complex)
    v[:, 0] = 1.0
    out.append((u / np.linalg.norm(u), v / np.linalg.norm(v)))
    return [(x / np.linalg.norm(x), y / np.linalg.norm(y)) for x, y in out]


def _search(phi4, aa, bb, seeds, iterations, seed, extra=()):
    """Best ascent over the seeded starts at ancilla (aa, bb) plus `extra`
    starts: ((objective, x, y), number of unconverged starts)."""
    da, db = phi4.shape[0], phi4.shape[1]
    starts = _seed_states(np.random.default_rng(seed), da, db, aa, bb, seeds) + list(extra)
    best = (-np.inf, None, None)
    unconverged = 0
    for x0, y0 in starts:
        obj, x, y, converged = _ascend(phi4, x0, y0, iterations)
        unconverged += not converged
        if obj > best[0]:
            best = (obj, x, y)
    return best, unconverged


def se_lower_search(op, seeds, iterations, seed=0):
    """Heuristic lower bound on the entangling strength by product-state search.

    Deterministic given `seed`. The search runs with ancillas of dimension
    min(d_A, d_B) on both sides. When that exceeds 1, a no-ancilla search
    runs first and its witness is embedded as an extra start, so the
    ancillas can never lower the result.
    """
    da, db = op.dim_a, op.dim_b
    aa = bb = min(da, db)
    phi4 = op.as_tensor()
    extra = []
    unconverged = 0
    if (aa, bb) != (1, 1):
        (_, x1, y1), unconverged = _search(phi4, 1, 1, seeds, iterations, seed)
        xb = np.zeros((da, aa), dtype=complex)
        xb[:, 0] = x1.reshape(da)
        yb = np.zeros((db, bb), dtype=complex)
        yb[:, 0] = y1.reshape(db)
        extra.append((xb, yb))
    (obj, _, _), missed = _search(phi4, aa, bb, seeds, iterations, seed, extra)
    return SeEstimate(lower=max(obj, 0.0), upper=best_upper(op), unconverged=unconverged + missed)
