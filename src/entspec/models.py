"""Model builders: one- and two-site chains with their decay and the
closed-form families used to exercise the entropy-rate machinery
(saturation protocol, flat-spectrum burst, toy two-qubit pump, projector
interactions).
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import EntspecError
from .se_strength import BipartiteOperator, _opnorm
from .spectra import PureState, SchmidtSpectrum, check, renyi_entropy

DENSE_DIM_CAP = 2 ** 12
# the most levels of an unbounded spectrum, a list of d0 + 1 floats: at one
# OpenBLAS thread on a 2-core x86 box a run at the cap took 1.3-1.5 s at a 260 MB peak
UNBOUNDED_D0_CAP = 2 ** 22


def _digit_offsets(sites, n, d):
    """Flat index, in an n-site chain of dimension d, of every joint value of
    the digits on `sites` (sorted, first site most significant), with all
    other digits zero."""
    off = np.zeros(1, dtype=np.int64)
    for i in sites:
        off = (off[:, None] + d ** (n - 1 - i) * np.arange(d)).ravel()
    return off


def _term_entries(term, n, d):
    """(rows, cols, vals) of one term in the chain matrix: each nonzero of its
    matrix at its support digits, repeated over the other sites' digits."""
    base = _digit_offsets(term.support, n, d)
    shift = _digit_offsets([i for i in range(n) if i not in term.support], n, d)
    r, c = np.nonzero(term.matrix)
    rows = (base[r][:, None] + shift).ravel()
    cols = (base[c][:, None] + shift).ravel()
    vals = np.repeat(term.matrix[r, c], shift.size)
    return rows, cols, vals


def _random_hermitian(rng, d):
    """(M + M^dag)/2 for a complex Gaussian d x d matrix M."""
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (m + m.conj().T) / 2


def _random_unit_hermitian(rng, d):
    """_random_hermitian scaled to unit operator norm."""
    m = _random_hermitian(rng, d)
    return m / _opnorm(m)


def _random_coupling(rng, da, db, n_terms, low, high):
    """sum_j c_j P_j (x) Q_j with unit-norm random Hermitian P_j, Q_j and
    c_j uniform on [low, high), drawn P, Q, then c for each term as
    from_terms reads it, so no term outlives its sum; the weight is sum_j c_j."""

    def terms():
        for _ in range(n_terms):
            p = _random_unit_hermitian(rng, da)
            q = _random_unit_hermitian(rng, db)
            yield float(rng.uniform(low, high)), p, q

    return BipartiteOperator.from_terms((da,), (db,), terms())


def _block_sum(h_a, h_b):
    """h_a (x) 1 + 1 (x) h_b."""
    return np.kron(h_a, np.eye(h_b.shape[0])) + np.kron(np.eye(h_a.shape[0]), h_b)


@dataclass(frozen=True)
class LocalTerm:
    """Hermitian term on one site or a pair of sites (matrix on their composite space)."""

    support: tuple
    matrix: np.ndarray
    norm: float = field(init=False)

    def __post_init__(self):
        support = tuple(sorted(int(i) for i in self.support))
        if len(set(support)) != len(support):
            raise ValueError("repeated site in support")
        if len(support) > 2:
            raise ValueError(f"support {support} has more than two sites")
        m = np.asarray(self.matrix, dtype=complex)
        if np.max(np.abs(m - m.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(m))):
            raise ValueError("term is not Hermitian")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "norm", _opnorm(m))

    @property
    def diameter(self):
        return self.support[-1] - self.support[0]


def _checked_eta(eta):
    """EntspecError unless eta > 2, which a NaN eta is not."""
    if not eta > 2:
        raise EntspecError(f"eta = {eta}, not > 2")


@dataclass(frozen=True)
class ChainHamiltonian:
    """Sum of one- and two-site terms on a line of n sites of dimension d.

    power is (J0, eta), meaning every pair (i, j) carries total coupling
    weight at most J0 |i-j|^(-eta), with eta > 2 (EntspecError
    otherwise), or None for a nearest-neighbour chain, whose two-site terms
    join adjacent sites.
    """

    n: int
    d: int
    terms: tuple
    power: Optional[tuple] = None
    k: int = field(init=False)
    g: float = field(init=False)

    def __post_init__(self):
        terms = tuple(self.terms)
        per_site = np.zeros(self.n)
        pair = {}
        for t in terms:
            if t.support[-1] >= self.n:
                raise ValueError("term support outside chain")
            if t.matrix.shape != (self.d ** len(t.support),) * 2:
                raise ValueError("term matrix does not match its support dims")
            if self.power is None and t.diameter > 1:
                raise ValueError(f"term on {t.support} in a nearest-neighbour chain")
            per_site[list(t.support)] += t.norm
            if len(t.support) == 2:
                pair[t.support] = pair.get(t.support, 0.0) + t.norm
        if self.power is not None:
            j0, eta = self.power
            _checked_eta(eta)
            for (i, j), w in pair.items():
                cap = j0 * (j - i) ** (-eta)
                if w > cap * (1 + 1e-9):
                    raise ValueError(f"pair ({i},{j}) weight {w} exceeds decay cap {cap}")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "k", max((len(t.support) for t in terms), default=1))
        object.__setattr__(self, "g", float(per_site.max()) if self.n else 0.0)

    @property
    def total_dim(self):
        return self.d ** self.n

    def dense(self):
        """The chain matrix, summed in term order; EntspecError above DENSE_DIM_CAP."""
        d = self.total_dim
        if d > DENSE_DIM_CAP:
            raise EntspecError(f"dense chain total dim {d} > cap {DENSE_DIM_CAP}")
        h = np.zeros((d, d), dtype=complex)
        for t in self.terms:
            rows, cols, vals = _term_entries(t, self.n, self.d)
            h[rows, cols] += vals  # one term repeats no (row, col), so each adds once
        return h

    def sparse(self):
        """CSR form of dense(), from the same entries in the same order, at any size."""
        from scipy import sparse

        d = self.total_dim
        h = sparse.csr_matrix((d, d), dtype=complex)
        for t in self.terms:
            rows, cols, vals = _term_entries(t, self.n, self.d)
            h = h + sparse.csr_matrix((vals, (rows, cols)), shape=(d, d))
        return h

    def boundary_strength_cap(self):
        """Uniform cap on the cut-interaction strength: eta J0/(eta - 2) for a
        power decay, else the largest sum of term norms across one bond."""
        if self.power is not None:
            j0, eta = self.power
            return float(eta * j0 / (eta - 2.0))
        cut_sums = [
            sum(t.norm for t in self.terms if t.support[0] < s <= t.support[-1])
            for s in range(1, self.n)
        ]
        return float(max(cut_sums, default=0.0))


def _clock_chain(n, d, pair_weights, hx, hz, power):
    """Clock chain: coupling w (Z_i Z_j^dag + h.c.)/2 for each ((i, j), w) in
    pair_weights, plus the field hx (X + X^dag)/2 + hz (Z + Z^dag)/2 on every
    site, from the clock and shift pair (Pauli Z, X at d = 2). Every local
    matrix has unit operator norm, so a power read from the weights is tight.
    """
    omega = np.exp(2j * np.pi / d)
    z = np.diag(omega ** np.arange(d))
    x = np.roll(np.eye(d), 1, axis=0).astype(complex)
    coupling = (np.kron(z, z.conj().T) + np.kron(z.conj().T, z)) / 2
    terms = [LocalTerm(pair, w * coupling) for pair, w in pair_weights]
    if hx or hz:
        fld = hx * ((x + x.conj().T) / 2) + hz * ((z + z.conj().T) / 2)
        terms += [LocalTerm((i,), fld) for i in range(n)]
    return ChainHamiltonian(n=n, d=d, terms=tuple(terms), power=power)


def build_long_range_ising(n, d=2, j0=1.0, *, eta, hx=0.0, hz=0.0, cut=None):
    """Power-law coupled clock chain with transverse and longitudinal fields:
    weight j0 |i-j|^(-eta) on every pair; EntspecError unless eta > 2,
    before any weight is formed. Given a cut in 1..n-1 (ValueError
    otherwise), the chain holds only the pairs i < cut <= j that cross it,
    with the fields: its power is still (|j0|, eta), but its g and dense()
    are those of the crossing part alone."""
    _checked_eta(eta)
    if cut is not None and not 1 <= cut <= n - 1:
        raise ValueError(f"cut = {cut} not in 1..n-1 for n = {n}")
    # every pair i < j, or with a cut only those with i < cut <= j, i then j ascending
    pairs = [((i, j), j0 * (j - i) ** (-eta)) for i in range(cut or n)
             for j in range(max(i + 1, cut or 0), n)]
    # pair weights enter power as norms, hence |j0|
    return _clock_chain(n, d, pairs, hx, hz, (abs(j0), eta))


def build_nearest_neighbor_chain(n, d, j, hx=0.0, hz=0.0):
    """Nearest-neighbour counterpart of the clock chain."""
    pairs = [((i, i + 1), j) for i in range(n - 1)]
    return _clock_chain(n, d, pairs, hx, hz, None)


@dataclass(frozen=True)
class SaturationDynamics:
    """Pump interaction J sum_j (|jj><00| + |00><jj|) on a pair of (M+1)-level
    systems, plus the n-pair pulse-and-swap protocol built from it."""

    m_levels: int
    j: float
    n_pairs: int
    v: BipartiteOperator

    @property
    def se_strength_exact(self):
        return float(self.m_levels * self.j)

    def per_pair_state(self, x):
        """exp(-i V x)|00>: closed form from the effective two-level block."""
        m = self.m_levels
        theta = math.sqrt(m) * self.j * x
        amps = np.zeros((m + 1) ** 2, dtype=complex)
        amps[0] = math.cos(theta)
        for jj in range(1, m + 1):
            amps[jj * (m + 1) + jj] = -1j * math.sin(theta) / math.sqrt(m)
        return PureState(dims=(m + 1, m + 1), amps=amps)

    def per_pair_spectrum(self, x):
        m = self.m_levels
        theta = math.sqrt(m) * self.j * x
        coeffs = [abs(math.cos(theta))] + [abs(math.sin(theta)) / math.sqrt(m)] * m
        coeffs = np.sort(np.array(coeffs))[::-1]
        return SchmidtSpectrum(coeffs=coeffs, source_norm=1.0)

    def protocol_entropy_half(self, t):
        z = math.sqrt(self.m_levels) * self.j * t / self.n_pairs
        m = self.m_levels
        return 2.0 * self.n_pairs * math.log(abs(math.cos(z)) + math.sqrt(m) * abs(math.sin(z)))

    def protocol_entropy(self, alpha, t):
        """n_pairs independent pairs: order-alpha entropy is additive."""
        spec = self.per_pair_spectrum(t / self.n_pairs)
        return self.n_pairs * renyi_entropy(spec, alpha)

    def average_rate(self, t):
        if t <= 0:
            raise ValueError("t must be positive")
        return self.protocol_entropy_half(t) / t

    def rate_lower_bound(self, t):
        m, j, n = self.m_levels, self.j, self.n_pairs
        return 2.0 * m * j - 2.0 * m * m * j * j * t / n

    def in_window(self, t):
        m, j, n = self.m_levels, self.j, self.n_pairs
        return t <= n * math.sqrt(m) / (2.0 * m * j)

    def rate_floor_check(self, times):
        """The average rate is at least rate_lower_bound - 1e-12 at every time
        of `times` inside the window.
        Paper: the optimality of the order-1/2 rate bound, reached by the pump protocol."""
        return check([(self.rate_lower_bound(t) - 1e-12, self.average_rate(t))
                      for t in times if self.in_window(t)])

    def strength_checks(self, lower):
        """A lower bound found on the pump lies within 1e-6 relative of its
        exact strength M*J, on both sides.
        Paper: the pump's spectral-entangling strength, exactly M*J."""
        exact = self.se_strength_exact
        return {"strength_reached": check([(exact * (1.0 - 1e-6), lower)]),
                "strength_not_exceeded": check([(lower, exact * (1.0 + 1e-6))])}


def build_saturation_dynamics(m_levels, j, n_pairs):
    if m_levels < 1 or n_pairs < 1:
        raise ValueError("m_levels and n_pairs must be >= 1")
    d = m_levels + 1
    terms = []
    for jj in range(1, m_levels + 1):
        ket = np.zeros((d, d), dtype=complex)
        ket[jj, 0] = 1.0
        terms += [(j, ket, ket), (j, ket.conj().T, ket.conj().T)]
    v = BipartiteOperator.from_terms((d,), (d,), terms)
    return SaturationDynamics(m_levels=m_levels, j=float(j), n_pairs=n_pairs, v=v)


@dataclass(frozen=True)
class UnboundedDynamics:
    """Near-flat Schmidt spectrum reachable at unit cost: weight sin(x) is
    spread across D0 levels after rotation angle x = J t / D0."""

    d0: int
    j: float
    t: float

    @property
    def x(self):
        return self.j * self.t / self.d0

    def spectrum(self):
        x = self.x
        c, s = math.cos(x), math.sin(x)
        coeffs = [c ** self.d0] + [c ** (k - 1) * s for k in range(1, self.d0 + 1)]
        coeffs = np.sort(np.abs(np.array(coeffs)))[::-1]
        return SchmidtSpectrum(coeffs=coeffs, source_norm=1.0)

    def entropy_lower_bound(self, alpha):
        alpha = float(alpha)
        if not 0.0 < alpha < 0.5:
            raise EntspecError(f"threshold-violation order alpha = {alpha} not in (0, 0.5)")
        jt = self.j * self.t
        return (1.0 - 2.0 * alpha) / (1.0 - alpha) * math.log(self.d0) + math.log(
            alpha * (jt / 2.0) ** (2.0 * alpha)
        ) / (1.0 - alpha)

    def strength_budget(self):
        """J t: time integral of the driving strength."""
        return self.j * self.t


def build_unbounded_dynamics(d0, j, t):
    if d0 < 2:
        raise ValueError("d0 must be >= 2")
    if d0 > UNBOUNDED_D0_CAP:
        raise EntspecError(f"d0 = {d0} > {UNBOUNDED_D0_CAP}, the length limit of its spectrum")
    if j * t > 1.0 + 1e-12:
        raise EntspecError(f"time too long: J*t = {j * t} > 1")
    return UnboundedDynamics(d0=int(d0), j=float(j), t=float(t))


@dataclass(frozen=True)
class ToyTwoQubit:
    """Two qubits driven by |00><11| + |11><00| from |00>."""

    @property
    def hamiltonian(self):
        h = np.zeros((4, 4), dtype=complex)
        h[0, 3] = h[3, 0] = 1.0
        return h

    @property
    def se_strength_exact(self):
        return 1.0

    def state(self, t):
        amps = np.array([math.cos(t), 0.0, 0.0, -1j * math.sin(t)], dtype=complex)
        return PureState(dims=(2, 2), amps=amps)

    def rate(self, alpha, t):
        """Closed-form d/dt of the order-alpha entropy on (0, pi/2).

        Diverges as t -> 0+ for alpha < 1/2; the alpha = infinity branch has
        a kink at t = pi/4.
        """
        c, s = math.cos(t), math.sin(t)
        if alpha == math.inf:
            return 2.0 * s / c if t < math.pi / 4 else -2.0 * c / s
        alpha = float(alpha)
        if abs(alpha - 1.0) < 1e-12:
            if s == 0.0 or c == 0.0:
                return 0.0
            return 2.0 * s * c * math.log((c / s) ** 2)
        num = c * s ** (2.0 * alpha - 1.0) - s * c ** (2.0 * alpha - 1.0)
        den = c ** (2.0 * alpha) + s ** (2.0 * alpha)
        return 2.0 * alpha / (1.0 - alpha) * num / den


def build_ising_projector_interaction(n_levels):
    """Correlated projector sum_s |ss><ss| on two n-level systems."""
    terms = [(1.0, np.diag(u), np.diag(u)) for u in np.eye(n_levels, dtype=complex)]
    return BipartiteOperator.from_terms((n_levels,), (n_levels,), terms)


def build_swap_interaction():
    """SWAP sum_ab |a><b| (x) |b><a| on two qubits, summed from those
    unit-norm product terms, so its weight is 4."""
    units = np.eye(2, dtype=complex)
    terms = [(1.0, np.outer(units[a], units[b]), np.outer(units[b], units[a]))
             for a in range(2) for b in range(2)]
    return BipartiteOperator.from_terms((2,), (2,), terms)


def named_strengths(pump):
    """Known strengths of the named interactions: the pump's M*J, the
    projector's 1, and sqrt(2), the known lower target of the two-qubit SWAP."""
    return {"pump": pump.se_strength_exact, "projector": 1.0, "swap": math.sqrt(2.0)}


def named_strength_checks(pump, pump_lower, projector_lower, swap_lower):
    """Lower bounds found on the named interactions against their known
    strengths: the pump's within 1e-4 and the projector's within 1e-6, both
    strictly, and the SWAP's target reached within 1e-6.
    Paper: the stated strengths of the pump, a projector and the SWAP."""
    want = named_strengths(pump)
    return {
        "pump_strength_reached": check([(abs(pump_lower - want["pump"]), 1e-4)], strict=True),
        "projector_strength_is_one": check([(abs(projector_lower - want["projector"]), 1e-6)],
                                           strict=True),
        "swap_reaches_root_two": check([(want["swap"] - 1e-6, swap_lower)]),
    }


def product_state(dims, local_vectors):
    """Tensor product of per-site vectors."""
    amps = np.array([1.0], dtype=complex)
    for d, v in zip(dims, local_vectors):
        v = np.asarray(v, dtype=complex).reshape(d)
        amps = np.kron(amps, v)
    return PureState(dims=tuple(dims), amps=amps)


def basis_product_state(dims, indices):
    vecs = []
    for d, i in zip(dims, indices):
        v = np.zeros(d, dtype=complex)
        v[i] = 1.0
        vecs.append(v)
    return product_state(dims, vecs)


def random_product_state(dims, rng):
    vecs = []
    for d in dims:
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        vecs.append(v / np.linalg.norm(v))
    return product_state(dims, vecs)


# the most levels a side of a random dense instance has by default
INSTANCE_SIDE_CAP = 16


def random_dense_instance(rng, dim_cap=256, max_local=INSTANCE_SIDE_CAP, n_terms=4):
    """Random H_A + H_B + V with a Hermitian unit-norm term decomposition.

    Returns (cut Hamiltonian pieces as dense matrices, V as BipartiteOperator,
    random product initial state). Each side has dimension at least 2, so
    dim_cap must be at least 4.
    """
    if dim_cap < 4:
        raise ValueError(f"dim_cap = {dim_cap} < 4 admits no instance")
    while True:
        da = int(rng.integers(2, max_local + 1))
        db = int(rng.integers(2, max_local + 1))
        if da * db <= dim_cap:
            break
    h_a = _random_hermitian(rng, da)
    h_b = _random_hermitian(rng, db)
    v = _random_coupling(rng, da, db, n_terms, 0.1, 2.0)
    h_full = _block_sum(h_a, h_b) + v.matrix
    state = random_product_state((da, db), rng)
    return h_full, v, state
