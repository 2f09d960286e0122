"""Certified first-order truncated time evolution on chains, with the
per-step spectral monitoring that turns discarded weights into a final
error guarantee, plus the Gibbs-purification tail experiment.

Every weight discarded anywhere (including staged intermediate
compressions) is charged into the step's delta entry, so the certificate
remains an upper bound on what was actually thrown away.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EntspecError
from .dynamics import DensePropagator, evolve_dense
from .lowrank import long_range_constants, merge_q0, rank_exponent_base
from .models import ChainHamiltonian
from .mps import (
    MatrixProductState,
    _apply_factors,
    _compress_blocks,
    _sum_blocks,
    _term_factors,
    from_dense,
    mps_norm,
    to_dense,
)
from .spectra import Cut, PureState, _or_inf, check, schmidt_decompose

# Within a step the accumulated state is compressed to STAGE_CAP_FACTOR *
# d_cap (dropping values at or below STAGE_TOLERANCE) whenever its bond
# exceeds that; a bond above BOND_MEMORY_CAP is refused outright.
STAGE_CAP_FACTOR = 4
STAGE_TOLERANCE = 1e-14
BOND_MEMORY_CAP = 4096


def default_step_count(g, n, t, eps_target=0.1):
    """Smallest step count putting the coherent-error term near eps_target;
    ValueError unless eps_target > 0, EntspecError when that count is not a
    finite number."""
    if not eps_target > 0:
        raise ValueError(f"eps_target = {eps_target}, not > 0")
    gnt = g * n * t
    if gnt <= 0:
        return 1
    steps = gnt * max(1.0, gnt / eps_target)
    if not math.isfinite(steps):
        raise EntspecError(f"no finite step count for g*n*t = {gnt} at eps_target = {eps_target}")
    return int(math.ceil(steps))


@dataclass(frozen=True)
class TdmrgConfig:
    chain: ChainHamiltonian
    t: float
    n_steps: int
    d_cap: int
    initial: MatrixProductState

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.d_cap < 1:
            raise ValueError("d_cap must be >= 1")
        if self.initial.n_sites != self.chain.n:
            raise ValueError("initial state length differs from chain")
        nrm = mps_norm(self.initial)
        if abs(nrm - 1.0) > 1e-9:
            raise ValueError(f"initial state norm {nrm} != 1")
        g = self.chain.g
        dt = self.t / self.n_steps
        if g * self.chain.n * dt > 1.0 + 1e-12:
            raise EntspecError(
                f"step too coarse: g*n*dt = {g * self.chain.n * dt} > 1; increase n_steps"
            )

    @property
    def dt(self):
        return self.t / self.n_steps


@dataclass(frozen=True)
class StepRecord:
    step: int
    zeta: float
    delta_bar: float
    delta_cap: float
    zeta_recursion_cap: float


@dataclass(frozen=True)
class TdmrgCertificate:
    steps: tuple
    d_cap: int
    j_tilde: float
    final_bound: float
    zeta_cap: float
    naive_bound: float

    @property
    def normalized_bound(self):
        return normalized_final_error_bound(self.final_bound)


def certificate_theory_bound(g, n, t, n_steps, d_cap, j_tilde):
    """Closed-form final-error cap: coherent term plus accumulated discards."""
    if t == 0:
        return 0.0
    dt = t / n_steps
    if g * n * dt > 1.0 + 1e-12:
        raise EntspecError(f"step too coarse: g*n*dt = {g * n * dt} > 1")
    gnt = g * n * t
    return gnt ** 2 / n_steps + (n_steps / math.sqrt(d_cap / (2.0 * n))) * math.exp(
        j_tilde * t + gnt ** 2 / n_steps
    )


def normalized_final_error_bound(eps_raw):
    """Error of the normalized output state given the raw bound; inf once
    the raw bound reaches 1, where it says nothing."""
    if eps_raw >= 1.0:
        return math.inf
    return eps_raw * (2.0 - eps_raw) / (1.0 - eps_raw)


def naive_error_bound(g, n, t, n_steps, d_cap, j_tilde):
    """Exponential-recurrence bound that predates the certificate, from an
    exact start; kept for comparison only."""
    root = math.sqrt(2.0 * n)
    grow = _or_inf(pow, 1.0 + root, n_steps)
    if grow == math.inf:
        return math.inf
    gnt = g * n * t
    per_step = root * math.exp(j_tilde * t) / math.sqrt(d_cap) + (1.0 + root) * gnt ** 2 / n_steps ** 2
    return (grow - 1.0) / root * per_step


def tdmrg_run(config):
    """First-order stepping (1 - i H dt) with bond truncation to d_cap.

    Deterministic. Returns the final (unnormalized) state and the
    certificate with per-step monitoring rows.
    """
    chain = config.chain
    dt = config.dt
    d_cap = config.d_cap
    j_tilde = chain.boundary_strength_cap() if chain.terms else 0.0
    g, n = chain.g, chain.n
    gnt = g * n * config.t
    zeta_cap = math.exp(j_tilde * config.t + gnt ** 2 / config.n_steps)
    factor = 1.0 + j_tilde * dt + (g * n * dt) ** 2
    cur = config.initial
    terms = [(term.support, _term_factors(term, n, cur.d)) for term in chain.terms]
    coeffs = [1.0] + [-1j * dt] * len(terms)
    rows = []
    zeta_prev = 1.0
    delta_sum = 0.0
    for m in range(1, config.n_steps + 1):
        # The sum cur + sum_k (-i dt) h_k|cur>, each piece kept as its site
        # tensors, is built one segment at a time: a segment ends where its
        # direct sum's bond would pass the stage cap, and is then compressed
        # into the first state of the next. Each sum is compressed block by block.
        segment = [cur.tensors]
        inner = [t.shape[2] for t in cur.tensors[:-1]]
        staged = 0.0
        for support, factors in terms:
            piece = _apply_factors(cur.tensors, support, factors)
            segment.append(piece)
            inner = [a + t.shape[2] for a, t in zip(inner, piece[:-1])]
            bond = max(inner, default=1)
            if bond > BOND_MEMORY_CAP:
                raise EntspecError(f"predicted bond {bond} > memory cap {BOND_MEMORY_CAP} "
                                   f"at step {m}")
            if bond > STAGE_CAP_FACTOR * d_cap:
                acc, rec = _compress_blocks(_sum_blocks(segment, coeffs[: len(segment)]),
                                            STAGE_CAP_FACTOR * d_cap, STAGE_TOLERANCE)
                staged += rec.max_delta
                segment = [acc.tensors]
                inner = [t.shape[2] for t in acc.tensors[:-1]]
        cur, rec = _compress_blocks(_sum_blocks(segment, coeffs[: len(segment)]), d_cap, 0.0)
        zeta = rec.max_zeta
        delta_bar = rec.max_delta + staged
        rows.append(
            StepRecord(
                step=m,
                zeta=zeta,
                delta_bar=delta_bar,
                delta_cap=zeta_cap / math.sqrt(d_cap),
                zeta_recursion_cap=factor * zeta_prev,
            )
        )
        zeta_prev = zeta
        delta_sum += delta_bar
    final_bound = gnt ** 2 / config.n_steps + math.sqrt(2.0 * n) * delta_sum
    cert = TdmrgCertificate(
        steps=tuple(rows),
        d_cap=d_cap,
        j_tilde=j_tilde,
        final_bound=final_bound,
        zeta_cap=zeta_cap,
        naive_bound=naive_error_bound(g, n, config.t, config.n_steps, d_cap, j_tilde),
    )
    return cur, cert


def certificate_checks(cert, dense_error):
    """The certificate's own inequalities: per-step discards tied to the
    coefficient sums, the sums under both caps, and the naive bound strictly
    looser; with the distance to the exact state (None when there is none),
    also that the final bound covers it.
    Paper: the precision-guarantee bound of TDMRG."""
    checks = {
        "delta_linked_to_zeta": check(
            [(s.delta_bar, s.zeta / math.sqrt(cert.d_cap)) for s in cert.steps], tol=1e-12),
        "zeta_below_cap": check([(s.zeta, cert.zeta_cap) for s in cert.steps], tol=1e-9),
        "zeta_recursion": check([(s.zeta, s.zeta_recursion_cap) for s in cert.steps], tol=1e-9),
        "naive_not_tighter": check([(cert.final_bound, cert.naive_bound)], strict=True),
    }
    if dense_error is not None:
        checks["certificate_covers_error"] = check([(dense_error, cert.final_bound)], tol=1e-12)
    return checks


def state_mps_existence_check(chain, initial, t, d_grid):
    """Evolve densely, factor exactly, truncate per D, and compare against
    the guaranteed error and coefficient laws.
    Paper: the 1/s^2 spectral tail and polynomial bond dimension of time-evolved states."""
    psi_t = evolve_dense(chain, initial, t)
    j_tilde = chain.boundary_strength_cap()
    n = chain.n
    growth = math.exp(j_tilde * t)
    # the law lam_j <= growth / j at every cut, with 1e-9 of rounding slack
    lam_pairs = []
    for s in range(1, n):
        spec = schmidt_decompose(psi_t, Cut(s, n))
        lam_pairs += [(lam, growth / j) for j, lam in enumerate(spec.coeffs, start=1)]
    rows = []
    pairs = []
    tol = 1e-12  # rounding slack of the truncation law, for each row and the check
    for d in d_grid:
        mps_d, _ = from_dense(psi_t, d_max=d)
        diff = psi_t.amps - to_dense(mps_d).amps
        err2 = float(np.vdot(diff, diff).real)
        bound = 2.0 * math.exp(2.0 * j_tilde * t) * n / d
        pairs.append((err2, bound))
        rows.append({"D": int(d), "err2": err2, "bound": bound,
                     "ok": check(pairs[-1:], tol=tol).ok})
    return {
        "j_tilde": j_tilde,
        "rows": rows,
        "checks": {
            "truncation_errors_bounded": check(pairs, tol=tol),
            "coefficient_law": check(lam_pairs, tol=1e-9),
        },
    }


def gibbs_tail_experiment(chain, betas, d_grid):
    """Schmidt tails of the normalized thermal purification, interleaved
    ordering, measured at every physical cut and compared with the loose
    theoretical decay; EntspecError from chain.dense() above DENSE_DIM_CAP.
    Paper: the polynomial bond-dimension approximation of thermal states."""
    kappa, c0, g_tilde, d0 = long_range_constants(chain)
    n, d = chain.n, chain.d
    prop = DensePropagator(chain.dense())
    q0 = merge_q0(2.0 * chain.g * chain.k, c0, g_tilde)
    rows = []
    pairs = []
    for beta in betas:
        # (u * f) @ u^dagger, not prop.matrix(f), whose other rounding moves the tails
        rho_half = (prop.u * np.exp(-beta * prop.w / 2.0)) @ prop.u.conj().T
        amp = rho_half / np.linalg.norm(rho_half)
        tens = amp.reshape((d,) * (2 * n))
        perm = [i + n * side for i in range(n) for side in (0, 1)]
        interleaved = tens.transpose(perm).reshape(-1)
        state = PureState(dims=(d,) * (2 * n), amps=interleaved)
        m_beta = int(math.ceil(beta * q0 / 4.0 - 1e-12)) if beta > 0 else 0
        kappa_beta = 4.0 * rank_exponent_base(kappa, d0) * m_beta
        for s in range(1, n):
            spec = schmidt_decompose(state, Cut(2 * s, 2 * n))
            for dd in d_grid:
                tail2 = float(np.sum(spec.coeffs[dd:] ** 2))
                cap = 480.0 * m_beta * dd ** (-1.0 / kappa_beta) if m_beta > 0 else None
                row_pairs = [] if cap is None else [(tail2, cap)]
                pairs += row_pairs
                rows.append({"beta": float(beta), "cut": s, "D": int(dd), "tail2": tail2,
                             "cap": cap, "ok": check(row_pairs).ok, "kappa_beta": kappa_beta})
    # Each cap is stated for one beta, and no bound orders tails across betas:
    # this worst step is reported, not checked (it is negative at hx = 0).
    tails = {(r["beta"], r["cut"], r["D"]): r["tail2"] for r in rows}
    ordered = sorted({b for b, _, _ in tails})
    steps = [(tails[b0, cut, dd], tails[b1, cut, dd])
             for b0, b1 in zip(ordered, ordered[1:]) for b, cut, dd in tails if b == b0]
    return {"q0": q0, "tail_growth_worst_step": check(steps).margin, "rows": rows,
            "checks": {"tails_below_cap": check(pairs)}}
