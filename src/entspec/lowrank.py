"""Low-rank approximation side: width bounds for the identity, max-abs
rank-constrained fits, the diagonal-phase no-go experiment, and the
normal-ordered merge series with its truncation budget.
"""

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import EntspecError
from .models import _block_sum
from .se_strength import _opnorm
from .spectra import check

MERGE_DIM_CAP = 2 ** 10
MERGE_MEMORY_CAP = 2 ** 29  # bytes of the couplings and weight bins one merge series holds
CHAIN_SLACK = 1e-9  # rounding slack of the no-go chain inequality
ALS_SWEEPS = 8  # alternating least-squares sweeps before the max-abs polish


def kolmogorov_bounds(n, d):
    """Two-sided width estimates for max-abs rank-d approximation of I_n."""
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= D <= N, got N={n}, D={d}")
    if d == n:
        # exact factorizations exist at full rank
        return 0.0, 2.0 * math.sqrt(math.log(n) / d)
    lower = 0.5 * min((2.0 / (1.0 + 4.0 * math.log(9.0))) * math.log(math.e * n / d) / d, 1.0)
    upper = 2.0 * math.sqrt(math.log(n) / d)
    return lower, upper


def _max_abs(r):
    return float(np.max(np.abs(r)))


def _subgradient_polish(target, a, b, iters):
    """Descend the max-abs residual; returns the least value seen."""
    a = np.array(a, dtype=target.dtype, copy=True)
    b = np.array(b, dtype=target.dtype, copy=True)
    r = target - a @ b
    best = _max_abs(r)
    for k in range(1, iters + 1):
        s, sp = np.unravel_index(np.argmax(np.abs(r)), r.shape)
        mag = abs(r[s, sp])
        if mag == 0.0:
            break
        ph = r[s, sp] / mag
        eta = 0.05 / math.sqrt(k)
        row = a[s, :].copy()
        a[s, :] += eta * ph * np.conj(b[:, sp])
        b[:, sp] += eta * ph * np.conj(row)
        r = target - a @ b
        best = min(best, _max_abs(r))
    return best


def _als_frobenius(target, a):
    b = None
    for _ in range(ALS_SWEEPS):
        b = np.linalg.lstsq(a, target, rcond=None)[0]
        at = np.linalg.lstsq(b.conj().T, target.conj().T, rcond=None)[0]
        a = at.conj().T
    return a, b


def _best_fit(target, cands, polish_iters):
    """Least max-abs residual |target - A B| over the candidates (A, B),
    each taken both as given and after ALS and subgradient polish."""
    best = math.inf
    for a0, b0 in cands:
        a, b = _als_frobenius(target, a0)
        best = min(best, _max_abs(target - a0 @ b0), _subgradient_polish(target, a, b, polish_iters))
    return best


@dataclass(frozen=True)
class WidthResult:
    n: int
    d: int
    value: float
    lower: float
    upper: float


def width_range_check(fits):
    """Every fit lies in [lower - 1e-6, 1/2 + 1e-9]: no lower than the proved
    width bound, and no higher than the all-halves witness's 1/2.
    Paper: the width bounds on rank-d approximations of the identity."""
    return check([(f.lower - 1e-6, f.value) for f in fits] + [(f.value, 0.5 + 1e-9) for f in fits])


# the largest N of an identity fit, which holds a few N x N float matrices
# (32 MiB each at the cap); EntspecError above it, before allocating
IDENTITY_FIT_DIM_CAP = 2 ** 11


def rank_constrained_identity_fit(n, d, seeds=32, polish_iters=300, seed=0):
    """Heuristic minimum of max-abs |I - AB| over real rank-d factorizations.

    The constant all-halves factorization (value exactly 1/2 for any n) is
    always included as a candidate, so the result never exceeds 1/2.
    """
    if n > IDENTITY_FIT_DIM_CAP:
        raise EntspecError(f"identity fit N = {n} > {IDENTITY_FIT_DIM_CAP}")
    lower, upper = kolmogorov_bounds(n, d)
    if d == n:
        return WidthResult(n=n, d=d, value=0.0, lower=lower, upper=upper)
    rng = np.random.default_rng(seed)
    cands = []
    a_half = np.ones((n, d))
    a_half[:, 1:] = 0.0
    b_half = np.zeros((d, n))
    b_half[0, :] = 0.5
    cands.append((a_half, b_half))
    for _ in range(seeds):
        cands.append((rng.standard_normal((n, d)), rng.standard_normal((d, n))))
    value = _best_fit(np.eye(n), cands, polish_iters)
    return WidthResult(n=n, d=d, value=value, lower=lower, upper=upper)


def no_go_lower_bound(t):
    """1 + 3t/2 - e^t: positive only on a short initial window."""
    return 1.0 + 1.5 * t - math.exp(t)


def no_go_chain_check(rows):
    """The width chain measured >= chain_rhs_sound - CHAIN_SLACK on every
    no_go_experiment row.
    Paper: the no-go chain inequality for rank-d diagonal-phase approximation."""
    return check([(r["chain_rhs_sound"] - CHAIN_SLACK, r["measured"]) for r in rows])


def no_go_experiment(n, d, times, seeds, polish_iters, seed=0):
    """Best diagonal-ansatz rank-d approximation of the correlated-phase
    target at each time of `times`, with the chain inequality it must
    respect: one row per time.

    Every candidate is feasible, so the reported minimum upper-bounds
    nothing and lower-bounds nothing falsely: it sits above the true
    infimum, which itself obeys the width chain. The sound chain column
    uses the proved width lower bound; the heuristic column is informative
    only.
    """
    idfit = rank_constrained_identity_fit(n, min(2 * d, n), seeds=max(8, seeds), seed=seed)
    width_range_check([idfit]).require("no-go's identity fit lies outside its proved range")
    # the seeded candidates do not depend on t, and _best_fit never writes to them
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(seeds):
        a0 = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        b0 = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
        draws.append((a0, b0))
    a_bis = np.zeros((n, d), dtype=complex)
    a_bis[:, 0] = 1.0
    rows = []
    for t in times:
        theta = np.full((n, n), 1.0, dtype=complex)
        np.fill_diagonal(theta, np.exp(-1j * t))
        b_bis = np.zeros((d, n), dtype=complex)
        b_bis[0, :] = (1.0 + np.exp(-1j * t)) / 2.0
        measured = _best_fit(theta, [(a_bis, b_bis)] + draws, polish_iters)
        gap = math.exp(t) - 1.0 - t
        row = {
            "n": n,
            "d": d,
            "t": t,
            "measured": measured,
            "bisector_witness": math.sin(t / 2.0),
            "chain_rhs_sound": t * idfit.lower - gap,
            "chain_rhs_heuristic": t * idfit.value - gap,
            "idfit_2d": idfit.value,
            "no_go_lb": no_go_lower_bound(t),
        }
        rows.append({**row, "chain_ok": no_go_chain_check([row]).ok})
    return rows


def simplex_moment(qs):
    """Exact ordered-simplex moment of prod x_j^(q_j), leftmost largest."""
    s = len(qs)
    val = Fraction(1)
    tail = 0
    for j in reversed(range(s)):
        tail += int(qs[j])
        val /= tail + (s - j)
    return val


def _compositions(slots, cap):
    """All tuples of `slots` nonnegative ints with sum <= cap."""
    if slots == 0:
        yield ()
        return
    for head in range(cap + 1):
        for rest in _compositions(slots - 1, cap - head):
            yield (head,) + rest


@dataclass(frozen=True)
class MergeSeries:
    exact: np.ndarray
    z: complex
    g_tilde: float
    q0: float
    n_bins: int
    error_measured: float
    error_bound: float
    log2_sr_bound: float
    bin_caps: tuple  # (weight, cap) per bin m: its norms' sum and c0 g_tilde 4^-m (1 + 1e-9)

    @property
    def error_check(self):
        """The measured truncation error is within the guaranteed budget.
        Paper: the truncation-error bound of the interaction-picture merge series."""
        return check([(self.error_measured, self.error_bound)], tol=1e-12)

    @property
    def bins_check(self):
        """Each bin's weight is at most its geometric cap, the decay the
        truncation bound assumes.
        Paper: the geometric-in-bin decay hypothesis of the merge series."""
        return check(self.bin_caps)


def merge_q0(q_param, c0, g_tilde):
    """q0 = max(4 q_param, 4e c0 g_tilde): the z window |z| <= 1/q0, ceil(x q0) segments."""
    return max(4.0 * q_param, 4.0 * math.e * c0 * g_tilde)


def rank_exponent_base(kappa, d0):
    """6 + 4/kappa + log2 d0: the log2 Schmidt rank per segment and log2 of 1/error."""
    return 6.0 + 4.0 / kappa + math.log2(d0)


def long_range_constants(chain):
    """(kappa, c0, g_tilde, d0) of the geometric-in-bin decay of couplings
    J0 r^-eta on terms of at most k sites; ValueError on a nearest-neighbour chain."""
    if chain.power is None:
        raise ValueError("chain has no power-law decay")
    j0, eta = chain.power
    kappa = (eta - 2.0) / (chain.k + 1.0)
    c0 = (eta - 1.0) * 2.0 ** (eta - 2.0)
    g_tilde = 4.0 * j0 * (1.0 + 1.0 / (eta - 2.0))
    return kappa, c0, g_tilde, chain.d ** (2 * chain.k)


def merge_z_window(z, q0):
    """The merge series' window |z| <= 1/q0: EntspecError when |z| (by
    hypot, finite for any finite z) passes 1/q0 by more than 1e-12."""
    zcap = 1.0 / q0
    z_abs = math.hypot(z.real, z.imag)
    if z_abs > zcap + 1e-12:
        raise EntspecError(f"z outside the merge window: |z| = {z_abs} > {zcap}")


def _bin_edge(m, kappa):
    """4^(m/kappa), where weight bin m starts; inf past float range."""
    try:
        return 4.0 ** (m / kappa)
    except OverflowError:
        return math.inf


def merge_bin_count(n_terms, kappa, dim):
    """The number of weight bins of the merge series: bin m holds the terms j
    (from 1) with 4^(m/kappa) <= j < 4^((m+1)/kappa), up to the first bin that
    starts past n_terms. EntspecError, before any bin is built, when the
    n_terms couplings and the bins, dim x dim complex matrices each, would take
    more than MERGE_MEMORY_CAP bytes, or when the last bin's upper edge is past
    float range."""
    matrix_bytes = 16 * dim * dim
    room = max(MERGE_MEMORY_CAP // matrix_bytes - n_terms, 0)  # the bins that fit
    n_bins = bisect.bisect_right(range(room + 1), n_terms, key=lambda m: _bin_edge(m, kappa))
    if n_bins > room:
        raise EntspecError(f"{n_terms} couplings and at least {n_bins} bins of {dim}x{dim} complex "
                            f"entries take at least {(n_terms + n_bins) * matrix_bytes} bytes "
                            f"> {MERGE_MEMORY_CAP}")
    if _bin_edge(n_bins, kappa) == math.inf:
        raise EntspecError(f"the upper edge 4^({n_bins}/{kappa}) of bin {n_bins - 1} is past "
                            "float range")
    return n_bins


def merge_error_bound(s0, m_order, q_order):
    return 2.0 ** (-s0 - 1) * math.exp(1.0 / (2.0 * math.e)) + (
        2.0 ** (-m_order - 1) + 2.0 ** (-q_order - 1)
    ) * math.exp(3.0 / (4.0 * math.e))


def build_merge_series(h0_a, h0_b, v_terms, z, s0, m_order, q_order, kappa, d0, c0, q_param):
    """Truncated normal-ordered expansion of exp(-z H0) exp(z (H0 + V)).

    v_terms come pre-ordered; they are grouped into weight bins of geometric
    tail and the triple truncation (series order, bin order, derivative
    order) is assembled with exact simplex moments. q_param is the model's
    derivative-budget parameter entering the z window, fixed by the physics
    rather than by the truncation orders. Returns the exact product, the
    measured error of the series against it, the guaranteed error budget,
    and each bin's weight with its geometric cap, which that budget assumes.
    """
    h0_a = np.asarray(h0_a, dtype=complex)
    h0_b = np.asarray(h0_b, dtype=complex)
    da, db = h0_a.shape[0], h0_b.shape[0]
    if da * db > MERGE_DIM_CAP:
        raise EntspecError(f"merge total dim {da * db} > {MERGE_DIM_CAP}")
    h0 = _block_sum(h0_a, h0_b)
    mats = [np.asarray(m, dtype=complex) for m in v_terms]
    norms = [_opnorm(m) for m in mats]
    g_tilde = float(sum(norms))
    z = complex(z)
    q0 = merge_q0(q_param, c0, g_tilde)
    merge_z_window(z, q0)
    n_bins = merge_bin_count(len(mats), kappa, da * db)
    bins = []
    bin_caps = []
    for m in range(n_bins):
        lo, hi = _bin_edge(m, kappa), _bin_edge(m + 1, kappa)
        members = [j for j in range(len(mats)) if lo <= j + 1 < hi]
        bin_caps.append((sum(norms[j] for j in members), c0 * g_tilde * 4.0 ** (-m) * (1 + 1e-9)))
        binmat = np.zeros_like(h0)
        for j in members:
            binmat += mats[j]
        bins.append(binmat)
    m_cap = min(m_order, n_bins - 1)
    ad = {}
    for mi in range(m_cap + 1):
        cur = bins[mi]
        for q in range(q_order + 1):
            ad[(mi, q)] = cur
            cur = h0 @ cur - cur @ h0
    dim = da * db
    series = np.eye(dim, dtype=complex)
    for s in range(1, s0 + 1):
        for mvec in _compositions(s, m_cap):
            for qvec in _compositions(s, q_order):
                coef = z ** s * float(simplex_moment(qvec))
                prod_mat = None
                for mj, qj in zip(mvec, qvec):
                    coef *= (-z) ** qj / math.factorial(qj)
                    prod_mat = ad[(mj, qj)] if prod_mat is None else prod_mat @ ad[(mj, qj)]
                series += coef * prod_mat
    from scipy.linalg import expm

    vtot = np.zeros_like(h0)
    for mmat in mats:
        vtot += mmat
    exact = expm(-z * h0) @ expm(z * (h0 + vtot))
    err = _opnorm(exact - series)
    bound = merge_error_bound(s0, m_order, q_order)
    eps_eff = 2.0 ** (1 - min(s0, m_order, q_order))
    log2_sr = rank_exponent_base(kappa, d0) * math.log2(4.0 / eps_eff)
    return MergeSeries(
        exact=exact,
        z=z,
        g_tilde=g_tilde,
        q0=q0,
        n_bins=n_bins,
        error_measured=err,
        error_bound=bound,
        log2_sr_bound=log2_sr,
        bin_caps=tuple(bin_caps),
    )


def truncation_error_params(duration, q_param, c0, g_tilde, kappa, d0, eps0=1.0):
    """Schmidt-rank budgets for propagator truncation over a duration: one results.csv row.

    duration is physical time for the real-time budget and inverse
    temperature for the imaginary-time one; eps0 is the per-segment error
    target. Both budgets are reported, floored at 0 since a Schmidt rank is
    at least 1.
    """
    q0 = merge_q0(q_param, c0, g_tilde)
    segments = int(math.ceil(duration * q0 - 1e-12)) if duration > 0 else 0
    base = rank_exponent_base(kappa, d0)
    if segments == 0:
        log2_real = 0.0
        log2_imag = 0.0
    else:
        log2_real = max(0.0, base * segments * math.log2(8.0 * segments / eps0))
        log2_imag = max(0.0, 2.0 * base * segments * math.log2(48.0 * segments / eps0))
    return {"duration": duration, "q0": q0, "segments": segments,
            "log2_sr_real": log2_real, "log2_sr_imag": log2_imag}


def budget_monotone_check(rows):
    """In ascending duration no real-time budget of truncation_error_params
    rows falls by more than 1e-12; the margin is the least step.
    Paper: the Schmidt-rank budget of truncated evolution, growing with duration."""
    reals = [r["log2_sr_real"] for r in sorted(rows, key=lambda r: r["duration"])]
    return check([(a, b) for a, b in zip(reals, reals[1:])], tol=1e-12)


@dataclass(frozen=True)
class LongRangeDecomposition:
    kappa: float
    c0: float
    g_tilde: float
    d0: int
    v_norms: tuple
    tails: tuple  # (tail, cap) per crossing term: the norms from it on, and their cap

    @property
    def tails_check(self):
        """Each tail is at most its cap, with no slack.
        Paper: the geometric-in-bin decay of a long-range interaction across a cut."""
        return check(self.tails)


def long_range_decomposition_check(chain, cut_pos):
    """Order the cut-crossing terms canonically and pair each tail of their
    norms with its cap at the guaranteed geometric-in-bin decay rate."""
    constants = kappa, c0, g_tilde, _ = long_range_constants(chain)
    crossing = [
        t
        for t in chain.terms
        if t.support[0] < cut_pos <= t.support[-1]
    ]
    crossing.sort(key=lambda t: (t.diameter, -t.norm, t.support))
    v_norms = tuple(t.norm for t in crossing)
    tails = []
    total = sum(v_norms)
    running = 0.0
    for dd, norm in enumerate(v_norms):
        tails.append((total - running, c0 * g_tilde * (dd + 1.0) ** (-kappa)))
        running += norm
    return LongRangeDecomposition(*constants, v_norms=v_norms, tails=tuple(tails))
