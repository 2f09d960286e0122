"""Open-boundary matrix product states with exact discarded-weight
accounting: factorization, contraction, n-way direct sums, local terms
applied to bare site tensors, and two-sweep compression (of a state, or of
a direct sum without building it) whose per-bond records feed certificates.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EntspecError
from .se_strength import _operator_schmidt
from .spectra import PureState

DENSE_CAP = 2 ** 20


@dataclass(frozen=True)
class MatrixProductState:
    """Site tensors indexed [left bond, physical, right bond]; boundary bonds 1.
    When left_canonical, every site but the last is left-orthonormal."""

    tensors: tuple
    left_canonical: bool = False

    def __post_init__(self):
        ts = tuple(np.asarray(t, dtype=complex) for t in self.tensors)
        if not ts:
            raise ValueError("empty tensor list")
        if any(t.ndim != 3 for t in ts):
            raise ValueError("site tensors must have 3 indices")
        if ts[0].shape[0] != 1 or ts[-1].shape[2] != 1:
            raise ValueError("boundary bond dims must be 1")
        for i, t in enumerate(ts):
            if i + 1 < len(ts) and t.shape[2] != ts[i + 1].shape[0]:
                raise ValueError(f"bond mismatch between sites {i} and {i + 1}")
        object.__setattr__(self, "tensors", ts)
        if self.left_canonical:
            for i, t in enumerate(ts[:-1]):
                dl, d, dr = t.shape
                m = t.reshape(dl * d, dr)
                g = m.conj().T @ m
                g.flat[:: dr + 1] -= 1.0  # the Gram matrix less the identity
                if np.abs(g).max() > 1e-10:
                    raise ValueError(f"tensor {i} not left-orthonormal")

    @property
    def n_sites(self):
        return len(self.tensors)

    @property
    def d(self):
        return self.tensors[0].shape[1]

    @property
    def bond_dims(self):
        return tuple([1] + [t.shape[2] for t in self.tensors])

    @property
    def max_bond(self):
        return max(self.bond_dims)


@dataclass(frozen=True)
class BondRecord:
    delta2: float
    zeta: float


@dataclass(frozen=True)
class CompressionRecord:
    bonds: tuple

    @property
    def sum_delta2(self):
        return float(sum(b.delta2 for b in self.bonds))

    @property
    def max_delta(self):
        return float(max((math.sqrt(b.delta2) for b in self.bonds), default=0.0))

    @property
    def max_zeta(self):
        return float(max((b.zeta for b in self.bonds), default=0.0))

    def stitching_bound(self):
        """Upper bound on ||orig - compressed||: sqrt(2 * sum of discards)."""
        return math.sqrt(2.0 * self.sum_delta2)


def _truncate_bond(t, d_cap, tolerance):
    """SVD-truncate the right bond of site tensor t[left, physical, right].

    Keeps at most d_cap values above tolerance, and at least one. Returns the
    left-orthonormal site tensor, the carry s_kept * Vh_kept for the next
    site, and the bond's record.
    """
    dl, d, dr = t.shape
    u, s, vh = np.linalg.svd(t.reshape(dl * d, dr), full_matrices=False)
    keep = int(min(d_cap, max(1, np.count_nonzero(s > tolerance))))
    kept = s[:keep]
    record = BondRecord(delta2=float(np.add.reduce(s[keep:] ** 2)),
                        zeta=float(np.add.reduce(kept)))
    return u[:, :keep].reshape(dl, d, keep), kept[:, None] * vh[:keep], record


def from_dense(state, d_max):
    """Sequential SVD factorization of a chain state, largest-first per bond;
    only exact zeros and values beyond d_max are dropped."""
    dims = state.dims
    d = dims[0]
    if any(x != d for x in dims):
        raise EntspecError("chain must have a uniform physical dimension")
    n = len(dims)
    rest = state.amps.reshape(1, -1)
    tensors = []
    bonds = []
    for _ in range(n - 1):
        t, rest, record = _truncate_bond(rest.reshape(rest.shape[0], d, -1), d_max, 0.0)
        tensors.append(t)
        bonds.append(record)
    tensors.append(rest.reshape(-1, d, 1))
    mps = MatrixProductState(tensors=tuple(tensors), left_canonical=True)
    return mps, CompressionRecord(bonds=tuple(bonds))


def to_dense(mps):
    d = mps.d
    total = d ** mps.n_sites
    if total > DENSE_CAP:
        raise EntspecError(f"dense state total dim {total} > cap {DENSE_CAP}")
    acc = mps.tensors[0].reshape(d, -1)
    for t in mps.tensors[1:]:
        acc = np.einsum("xb,bpr->xpr", acc, t).reshape(-1, t.shape[2])
    return PureState(dims=(d,) * mps.n_sites, amps=acc.reshape(-1))


def _sum_blocks(states, coeffs):
    """The direct sum sum_k coeffs[k] * states[k] of states given by their
    site tensors, site by site, as lists of dense blocks: one row on the first
    site (the blocks side by side, each scaled by its coefficient), one column
    on the last (the blocks stacked), and on every middle site each state's
    tensor scaled by 1.0, for the diagonal. Scaling by 1.0 is kept, as it
    turns some -0.0 into +0.0. A one-site chain is the plain sum.
    """
    first = states[0]
    n, d = len(first), first[0].shape[1]
    if any(len(s) != n or s[0].shape[1] != d for s in states):
        raise EntspecError("MPS shapes differ")
    if n == 1:
        t = coeffs[0] * first[0]
        for s, c in zip(states[1:], coeffs[1:]):
            t = t + c * s[0]
        return [[t]]
    row = np.concatenate([s[0] * c for s, c in zip(states, coeffs)], axis=2)
    middle = [[s[i] * 1.0 for s in states] for i in range(1, n - 1)]
    column = np.concatenate([s[-1] * 1.0 for s in states], axis=0)
    return [[row]] + middle + [[column]]


def _block_diagonal(blocks):
    """A zero-filled site tensor with `blocks` on its diagonal, in order."""
    t = np.zeros((sum(b.shape[0] for b in blocks), blocks[0].shape[1],
                  sum(b.shape[2] for b in blocks)), dtype=complex)
    l = r = 0
    for b in blocks:
        lb, _, rb = b.shape
        t[l : l + lb, :, r : r + rb] = b
        l += lb
        r += rb
    return t


def add(states, coeffs):
    """Direct sum on bonds; dense value sum_k coeffs[k] * states[k].

    The blocks of each middle site sit on its diagonal, so the boundary bonds
    stay 1.
    """
    sites = _sum_blocks([s.tensors for s in states], coeffs)
    return MatrixProductState(tensors=tuple(_block_diagonal(blocks) for blocks in sites))


def _term_factors(term, n, d):
    """Check that a local term fits an n-site chain of dimension d and split
    it for `_apply_factors`: the matrix itself on one site, or the pairs
    (sqrt(s) E, sqrt(s) F) of its operator-Schmidt split on two."""
    if term.support[-1] >= n:
        raise EntspecError("term support outside the chain")
    if len(term.support) == 1:
        return term.matrix
    factors = zip(*_operator_schmidt(term.matrix, d, d))
    return [(math.sqrt(s) * e, math.sqrt(s) * f) for s, e, f in factors]


def _apply_factors(tensors, support, factors):
    """The site tensors of the term with these `_term_factors` applied to the
    state with these site tensors. Sites outside the support keep their
    arrays; bonds between a two-site support grow by the number of factor
    pairs (at most d^2), with the middle sites block-diagonal."""
    ts = list(tensors)
    if len(support) == 1:
        ts[support[0]] = np.einsum("pq,lqr->lpr", factors, ts[support[0]])
        return ts
    i, j = support
    ts[i] = np.concatenate([np.einsum("pq,lqr->lpr", e, ts[i]) for e, _ in factors], axis=2)
    for k in range(i + 1, j):
        ts[k] = _block_diagonal([ts[k]] * len(factors))
    ts[j] = np.concatenate([np.einsum("pq,lqr->lpr", f, ts[j]) for _, f in factors], axis=0)
    return ts


def apply_local_term(mps, term):
    """h_Z applied to the state; bonds between a two-site support grow by the
    number of product factors (at most d^2)."""
    factors = _term_factors(term, mps.n_sites, mps.d)
    return MatrixProductState(tensors=tuple(_apply_factors(mps.tensors, term.support, factors)))


def _compress_blocks(sites, d_cap, tolerance):
    """Right-canonicalize, then truncate left-to-right, a chain given per site
    as a list of blocks that sit on the diagonal of the site tensor (one block
    on the first and last sites).

    Each R^H of the right-to-left QR sweep is absorbed block by block, so the
    zeros off the diagonal are never stored or multiplied. Skipping them keeps
    every bit: the contraction accumulates each entry in ascending order from
    +0.0, never reaches -0.0, and so is unchanged by adding an exact zero.

    The left-to-right SVDs see the state in mixed-canonical form, so the
    recorded per-bond values are the exact Schmidt data of the state being
    truncated at that bond.
    """
    n = len(sites)
    ts = [None] * (n - 1) + list(sites[-1])
    for i in range(n - 1, 0, -1):
        dl, d, dr = ts[i].shape
        q, r = np.linalg.qr(ts[i].reshape(dl, d * dr).conj().T)
        ts[i] = q.conj().T.reshape(-1, d, dr)
        rh = r.conj().T
        parts = []
        at = 0
        for b in sites[i - 1]:
            parts.append(np.einsum("lpr,rk->lpk", b, rh[at : at + b.shape[2]]))
            at += b.shape[2]
        ts[i - 1] = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)
    bonds = []
    for i in range(n - 1):
        ts[i], carry, record = _truncate_bond(ts[i], d_cap, tolerance)
        bonds.append(record)
        ts[i + 1] = np.einsum("ab,bpr->apr", carry, ts[i + 1])
    out = MatrixProductState(tensors=tuple(ts), left_canonical=True)
    return out, CompressionRecord(bonds=tuple(bonds))


def compress(mps, d_cap):
    """Right-canonicalize, then truncate left-to-right, keeping at most d_cap
    nonzero values per bond."""
    return _compress_blocks([[t] for t in mps.tensors], d_cap, 0.0)


def mps_inner(a, b):
    """<a|b> by transfer contraction."""
    if a.n_sites != b.n_sites or a.d != b.d:
        raise EntspecError("MPS shapes differ")
    env = np.ones((1, 1), dtype=complex)
    for ta, tb in zip(a.tensors, b.tensors):
        env = np.einsum("xy,xps,ypr->sr", env, ta.conj(), tb)
    return complex(env[0, 0])


def mps_norm(mps):
    return math.sqrt(max(0.0, mps_inner(mps, mps).real))


def product_mps(n, d, local_vectors=None):
    """Bond-dimension-1 state from per-site vectors (default all-zeros basis)."""
    ts = []
    for i in range(n):
        if local_vectors is None:
            v = np.zeros(d, dtype=complex)
            v[0] = 1.0
        else:
            v = np.asarray(local_vectors[i], dtype=complex)
        ts.append(v.reshape(1, d, 1))
    return MatrixProductState(tensors=tuple(ts))

