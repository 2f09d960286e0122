"""Gaussian-filtered spectral projectors, their defect and strength caps,
ground-state truncation tails, and the entropy-bound constant chain.

The projector is K = U f(spectrum) U^dag with the filter the truncated
Gaussian-window Fourier integral, evaluated by Gauss-Legendre quadrature
with node doubling until the dense operator stops moving.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EntspecError
from .dynamics import DensePropagator, adiabatic_error_bound, adiabatic_evolve
from .models import _block_sum, _random_coupling
from .se_strength import _opnorm
from .spectra import (
    Cut, PureState, SchmidtSpectrum, _or_inf, check, renyi_entropy, schmidt_decompose,
)

# quadrature: starting Gauss-Legendre node count, doubled until the filter
# values move by less than QUAD_TOL and the ground value is within
# GROUND_TOL of its closed form, or the count reaches NODE_CAP
START_NODES = 64
QUAD_TOL = 1e-10
GROUND_TOL = 1e-8
NODE_CAP = 2 ** 14
# random gapped instances: block dimensions drawn from 2..GAPPED_MAX_LOCAL,
# coupling made of GAPPED_V_TERMS product terms
GAPPED_MAX_LOCAL = 8
GAPPED_V_TERMS = 3
SMALL_GAP = 1e-8  # least chain gap at which ground_tail_experiment trusts its tail cap


@dataclass(frozen=True)
class AgspOperator:
    matrix: np.ndarray
    beta: float
    delta: float
    eigvals: np.ndarray
    filter_vals: np.ndarray
    nodes_used: int
    quad_diff: float  # last quadrature change: converged when below QUAD_TOL

    @property
    def defect_ground(self):
        """Distance moved by the ground vector."""
        return float(abs(self.filter_vals[0] - 1.0))

    @property
    def defect_excited(self):
        """Norm of the projector restricted to the excited sector."""
        return float(np.max(np.abs(self.filter_vals[1:]))) if self.eigvals.size > 1 else 0.0

    @property
    def gauss_defect(self):
        """Distance to the untruncated Gaussian of the shifted spectrum."""
        return float(np.max(np.abs(self.filter_vals - np.exp(-self.beta * self.eigvals ** 2))))

    @property
    def defect_bound(self):
        return math.exp(-self.beta * self.delta ** 2)

    def strength_cap(self, v_upper):
        """Growth cap on the cut strength of the filtered propagator mix."""
        return _or_inf(math.exp, 2.0 * self.beta * self.delta * v_upper)


@functools.lru_cache(maxsize=None)
def _legendre(nodes):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per count
    (the doubling only visits START_NODES * 2^k up to NODE_CAP) and shared
    read-only."""
    from scipy.special import roots_legendre

    x, w = roots_legendre(nodes)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _filter_values(lams, beta, t_c, nodes):
    x, w = _legendre(nodes)
    t = t_c * x
    wt = t_c * w
    env = np.exp(-t ** 2 / (4.0 * beta)) * wt
    vals = (env[None, :] * np.cos(np.outer(lams, t))).sum(axis=1)
    return vals / math.sqrt(4.0 * math.pi * beta)


def _ground_miss(f0, beta, delta):
    """Distance of the filter's ground value from its closed form erf(sqrt(beta) * gap)."""
    return abs(f0 - math.erf(math.sqrt(beta) * delta))


def build_agsp(h, beta):
    """Gaussian-window filter of a dense Hermitian matrix (ValueError if it
    is not Hermitian), ground energy shifted to zero, integration window
    2 * beta * gap. A small change stops the doubling only where the ground
    value is its closed form erf(sqrt(beta) * gap), not on two passes of zeros."""
    prop = DensePropagator(h)
    w = prop.w
    delta = float(w[1] - w[0])
    if delta < 1e-9:
        raise EntspecError(f"spectral gap {delta} below 1e-9")
    lams = w - w[0]
    t_c = 2.0 * beta * delta
    nodes = START_NODES
    f_prev = _filter_values(lams, beta, t_c, nodes)
    while True:
        nodes *= 2
        f_cur = _filter_values(lams, beta, t_c, nodes)
        # ||U diag(df) U^dag|| = max|df| exactly, since U is unitary
        k_diff = float(np.max(np.abs(f_cur - f_prev)))
        if (k_diff < QUAD_TOL and _ground_miss(f_cur[0], beta, delta) < GROUND_TOL
                or nodes >= NODE_CAP):
            break
        f_prev = f_cur
    return AgspOperator(
        matrix=prop.matrix(f_cur),
        beta=float(beta),
        delta=delta,
        eigvals=lams,
        filter_vals=f_cur,
        nodes_used=nodes,
        quad_diff=k_diff,
    )


def agsp_checks(ops):
    """The defect inequalities of filtered projectors (ground and Gaussian
    defects below the defect bound, excited defect below twice it) and the
    convergence of their quadratures: a last change below QUAD_TOL and a
    ground value within GROUND_TOL of its closed form, which zeros miss.
    Paper: the defect bounds of the Gaussian-filtered approximate ground-state projector."""
    defects = [pair for a in ops for pair in (
        (a.defect_ground, a.defect_bound), (a.defect_excited, 2.0 * a.defect_bound),
        (a.gauss_defect, a.defect_bound))]
    return {
        "defects_below_bounds": check(defects, tol=1e-12),
        "quadrature_converged": check([(a.quad_diff, QUAD_TOL) for a in ops] + [
            (_ground_miss(a.filter_vals[0], a.beta, a.delta), GROUND_TOL) for a in ops],
            strict=True),
    }


def random_gapped_instance(rng):
    """Random two-block Hamiltonian with a guaranteed open gap.

    Both blocks get spectrum {0} U [1.5, 3.5] in a random basis, so the
    coupling (coefficient sum <= 0.6) cannot close the gap.
    """
    da = int(rng.integers(2, GAPPED_MAX_LOCAL + 1))
    db = int(rng.integers(2, GAPPED_MAX_LOCAL + 1))

    def rand_block(d):
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, _ = np.linalg.qr(m)
        vals = np.concatenate([[0.0], np.sort(1.5 + rng.uniform(0.0, 2.0, d - 1))])
        return q @ np.diag(vals) @ q.conj().T

    h_a = rand_block(da)
    h_b = rand_block(db)
    v = _random_coupling(rng, da, db, GAPPED_V_TERMS, 0.05, 0.2)
    return _block_sum(h_a, h_b) + v.matrix, v, (da, db)


def ground_tail_experiment(chain, cut_pos, d_grid):
    """Schmidt tails of a chain ground state against the loose power-law cap.

    The reported cap drops the dimension prefactor (>= 1), so staying below
    it is strictly harder than the stated inequality.
    Paper: the polynomial Schmidt-tail decay of long-range chain ground states.
    """
    cut = Cut(cut_pos, chain.n)
    dim = chain.total_dim
    if dim <= 2048:
        prop = DensePropagator(chain.dense())
        gap = float(prop.w[1] - prop.w[0])
        ground = prop.u[:, 0]
    else:
        from scipy.sparse.linalg import eigsh

        # a fixed start vector: ARPACK's default random one makes reruns differ
        w, u = eigsh(chain.sparse(), k=2, which="SA", v0=np.full(dim, 1.0 / math.sqrt(dim)))
        order = np.argsort(w)
        gap = float(w[order[1]] - w[order[0]])
        ground = u[:, order[0]]
    state = PureState(dims=(chain.d,) * chain.n, amps=ground)
    spec = schmidt_decompose(state, cut)
    j_tilde = chain.boundary_strength_cap()
    expo = gap / (2.0 * j_tilde + gap) if j_tilde > 0 else 1.0
    rows = []
    pairs = []
    logs = []
    for d in d_grid:
        tail2 = float(np.sum(spec.coeffs[d:] ** 2))
        cap = 32.0 * d ** (-expo)
        pairs.append((tail2, cap))
        rows.append({"D": int(d), "tail2": tail2, "cap": cap, "ok": check(pairs[-1:]).ok})
        if tail2 > 1e-28:
            logs.append((math.log(d), math.log(tail2)))
    slope = None
    if len(logs) >= 2:
        xs = np.array([p[0] for p in logs])
        ys = np.array([p[1] for p in logs])
        slope = float(np.polyfit(xs, ys, 1)[0])
    # the cap needs a gapped chain: below SMALL_GAP the check is gap >= SMALL_GAP
    return {
        "gap": gap,
        "j_tilde": j_tilde,
        "exponent": expo,
        "rows": rows,
        "tail_slope": slope,
        "checks": {"tails_below_cap": check(pairs) if gap >= SMALL_GAP
                   else check([(SMALL_GAP, gap)])},
    }


def c_kappa_1(kappa):
    p = 2.0 ** (-2.0 * kappa)
    return (2.0 - p) / (kappa * (1.0 - p))


def c_kappa_2(kappa):
    p = 2.0 ** (-2.0 * kappa)
    return (6.0 + 2.0 * kappa) * math.log(2.0) / (1.0 - p) ** 2


@dataclass(frozen=True)
class AreaLawConstants:
    kappa: float
    log_c: float
    ck1: float
    ck2: float

    @property
    def entropy_bound(self):
        return self.ck1 * self.log_c + self.ck2

    def tail_cap(self, d):
        """C * D^(-kappa), evaluated in log space."""
        return _or_inf(math.exp, self.log_c - self.kappa * math.log(d))


def area_law_constants(g_tilde, delta, s0, c0_tilde):
    kappa = delta / (2.0 * delta + 4.0 * g_tilde)
    log_c = (
        (s0 + 3.0) / (4.0 * kappa)
        + math.log(12.0)
        + 3.0 * c0_tilde * g_tilde ** 3 * (2.0 * delta / g_tilde + 7.0 * c0_tilde) / delta ** 3
    )
    return AreaLawConstants(
        kappa=kappa, log_c=log_c, ck1=c_kappa_1(kappa), ck2=c_kappa_2(kappa)
    )


def boundary_adiabatic_experiment(delta, coupling, epsilon, beta, d_grid):
    """Two qubits with local gap delta, the boundary coupling ramped up to
    coupling * X (x) X: ramp, filter, truncate, compare to the target ground
    state, and report every link of the constant chain.
    Paper: the generalized entanglement area law under adiabatic paths."""
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    h_loc = np.diag([0.0, delta]).astype(complex)
    h0 = _block_sum(h_loc, h_loc)
    xx = np.kron(x, x)

    def h(nu):
        return h0 + (nu * coupling) * xx

    # V(nu) = nu * coupling * X (x) X, one unit-norm product term, so its
    # strength peaks at nu = 1
    g_tilde = abs(float(coupling))
    # raises EntspecError before any step when the sampled path gap closes
    res = adiabatic_evolve(h, epsilon)
    delta_path = res.delta_min
    h_fd = 1e-4
    c0 = 0.0
    for nu in np.linspace(h_fd, 1.0 - h_fd, 9):
        # V(nu) at nu - h_fd, nu and nu + h_fd
        vm, v0, vp = (((nu + k * h_fd) * coupling) * xx for k in (-1, 0, 1))
        d1 = _opnorm((vp - vm) / (2 * h_fd))
        d2 = _opnorm((vp - 2 * v0 + vm) / h_fd ** 2)
        c0 = max(c0, d1 / g_tilde, d2 / g_tilde)
    omega0 = DensePropagator(h(0.0)).u[:, 0]
    h1 = h(1.0)
    omega1 = DensePropagator(h1).u[:, 0]
    cut, dims = Cut(1, 2), (2, 2)
    s0 = renyi_entropy(schmidt_decompose(PureState(dims=dims, amps=omega0), cut), 1.0)
    adiab_err = math.sqrt(max(0.0, 2.0 - 2.0 * abs(np.vdot(res.psi, omega1))))
    adiab_cap = adiabatic_error_bound(c0, g_tilde, epsilon, delta_path)
    agsp = build_agsp(h1, beta)
    agsp_checks([agsp])["quadrature_converged"].require("area-law's filter quadrature")
    phi = agsp.matrix @ res.psi
    phi = phi / np.linalg.norm(phi)
    # phi = sum_s coeffs[s] kron(u[:, s], vh[s]), the left qubit as the row index
    u, coeffs, vh = np.linalg.svd(phi.reshape(2, 2), full_matrices=False)
    spec = SchmidtSpectrum(coeffs, float(np.linalg.norm(phi)))
    consts = area_law_constants(g_tilde, delta_path, s0, c0)
    rows = []
    pairs = []
    for d in d_grid:
        # the top min(D, rank) Schmidt terms, the coefficients being descending
        psi_d = np.zeros_like(phi)
        for s in range(min(d, spec.rank)):
            psi_d += coeffs[s] * np.kron(u[:, s], vh[s])
        psi_d /= np.linalg.norm(psi_d)
        err = math.sqrt(max(0.0, 2.0 - 2.0 * abs(np.vdot(psi_d, omega1))))
        cap = consts.tail_cap(d)
        pairs.append((err, cap))
        rows.append({"D": int(d), "err": err, "cap": cap, "ok": check(pairs[-1:]).ok})
    e1_target = renyi_entropy(
        schmidt_decompose(PureState(dims=dims, amps=omega1), cut), 1.0
    )
    return {
        "delta_path": delta_path,
        "g_tilde": g_tilde,
        "c0_tilde": c0,
        "s0": s0,
        "epsilon": epsilon,
        "beta": beta,
        "adiabatic_error": adiab_err,
        "adiabatic_cap": adiab_cap,
        "adiabatic_converged_diff": res.converged_diff,
        "agsp_defect_ground": agsp.defect_ground,
        "agsp_defect_bound": agsp.defect_bound,
        "kappa": consts.kappa,
        "log_c": consts.log_c,
        "entropy_bound": consts.entropy_bound,
        "entropy_target": e1_target,
        "rows": rows,
        "steps": res.steps,
        "checks": {
            "truncation_below_cap": check(pairs),
            "entropy_below_bound": check([(e1_target, consts.entropy_bound)]),
            "adiabatic_below_cap": check([(adiab_err, adiab_cap)], tol=1e-9),
            "adiabatic_converged": res.converged_check,
        },
    }
