"""Chain Hamiltonians and the three analytic protocol families."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from entspec import (
    ChainHamiltonian,
    Cut,
    EntspecError,
    LocalTerm,
    ToyTwoQubit,
    basis_product_state,
    build_ising_projector_interaction,
    build_long_range_ising,
    build_nearest_neighbor_chain,
    build_saturation_dynamics,
    build_swap_interaction,
    build_unbounded_dynamics,
    random_dense_instance,
    random_product_state,
    renyi_entropy,
    schmidt_decompose,
)
from entspec import models
from entspec.dynamics import unbounded_experiment
from entspec.lowrank import long_range_constants
from entspec.models import UNBOUNDED_D0_CAP, _random_coupling, _random_unit_hermitian

from helpers import random_hermitian

X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def test_local_term_validation():
    t = LocalTerm(support=(3, 1), matrix=np.kron(Z, Z))
    assert t.support == (1, 3)
    assert t.diameter == 2
    assert t.norm == pytest.approx(1.0)
    with pytest.raises(ValueError):
        LocalTerm(support=(0, 0), matrix=np.kron(Z, Z))
    with pytest.raises(ValueError):
        LocalTerm(support=(0,), matrix=np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_chain_metadata_and_dense():
    terms = (
        LocalTerm(support=(0, 1), matrix=0.5 * np.kron(Z, Z)),
        LocalTerm(support=(1, 2), matrix=0.5 * np.kron(Z, Z)),
        LocalTerm(support=(1,), matrix=0.3 * X),
    )
    chain = ChainHamiltonian(n=3, d=2, terms=terms)
    assert chain.k == 2
    assert chain.g == pytest.approx(1.3)  # site 1 touches all three terms
    assert chain.total_dim == 8
    # a nearest-neighbour chain's cap is its largest sum of norms across a bond
    assert chain.boundary_strength_cap() == pytest.approx(0.5)
    h = chain.dense()
    assert np.allclose(h, h.conj().T)
    assert np.array_equal(chain.sparse().toarray(), h)
    manual = (
        0.5 * np.kron(np.kron(Z, Z), np.eye(2))
        + 0.5 * np.kron(np.eye(2), np.kron(Z, Z))
        + 0.3 * np.kron(np.kron(np.eye(2), X), np.eye(2))
    )
    assert np.allclose(h, manual)


def _exact_test_chains():
    """Non-adjacent complex terms under a loose power decay, and clock sites
    (d = 3)."""
    rng = np.random.default_rng(5)
    scattered = ChainHamiltonian(n=4, d=2, terms=(
        LocalTerm(support=(0, 2), matrix=random_hermitian(rng, 4)),
        LocalTerm(support=(1, 3), matrix=random_hermitian(rng, 4)),
        LocalTerm(support=(0, 3), matrix=0.5 * np.kron(Z, X)),
        LocalTerm(support=(1,), matrix=0.3 * X),
    ), power=(100.0, 3.0))
    return (
        scattered,
        build_long_range_ising(6, d=2, j0=1.0, eta=3.0, hx=0.4, hz=0.2),
        build_long_range_ising(4, d=3, j0=1.0, eta=3.0, hx=0.3, hz=0.1),
        build_nearest_neighbor_chain(5, d=3, j=0.7, hx=0.2),
    )


def _kron_reference(chain):
    """Each term as matrix (x) identity on the other sites, its axes moved
    back into site order, summed in term order."""
    n, d, dim = chain.n, chain.d, chain.total_dim
    h = np.zeros((dim, dim), dtype=complex)
    for t in chain.terms:
        rest = [i for i in range(n) if i not in t.support]
        order = list(t.support) + rest
        big = np.kron(t.matrix, np.eye(d ** len(rest)))
        perm = list(np.argsort(order))
        h += big.reshape([d] * (2 * n)).transpose(perm + [n + p for p in perm]).reshape(dim, dim)
    return h


def test_sparse_equals_dense_exactly():
    """Term-by-term CSR assembly adds the same values in the same order as
    the dense sum."""
    for chain in _exact_test_chains():
        assert np.array_equal(chain.sparse().toarray(), chain.dense())


class Formed(Exception):
    """Raised by a stand-in for the call that would form a refused matrix."""


def _forms(*args):
    raise Formed


def test_sparse_refuses_a_chain_above_its_cap_before_forming_an_entry(monkeypatch):
    # 2**17 rows at n 17: the CLI's budget row was the only guard
    monkeypatch.setattr(models, "_term_entries", _forms)
    with pytest.raises(EntspecError, match="sparse chain total dim 131072 > cap 65536"):
        build_long_range_ising(17, eta=3.0).sparse()
    with pytest.raises(Formed):  # n 16 is at the cap, so its entries are formed
        build_long_range_ising(16, eta=3.0).sparse()


def test_clock_coupling_is_refused_above_the_dense_cap_before_it_is_formed(monkeypatch):
    # the d**2 x d**2 coupling at d 65 holds 4225**2 entries, 285 MB
    monkeypatch.setattr(np, "kron", _forms)
    with pytest.raises(EntspecError, match="clock coupling dim 4225 > cap 4096"):
        build_nearest_neighbor_chain(2, d=65, j=1.0)
    with pytest.raises(Formed):  # d 64 is at the cap, so its coupling is formed
        build_nearest_neighbor_chain(2, d=64, j=1.0)


def test_dense_equals_kron_reference_bytes():
    """dense() against an embedding that shares none of its index arithmetic."""
    for chain in _exact_test_chains():
        assert chain.dense().tobytes() == _kron_reference(chain).tobytes()


def test_chain_validation_errors():
    bad = (LocalTerm(support=(0, 3), matrix=np.kron(Z, Z)),)
    with pytest.raises(ValueError, match="outside chain"):
        ChainHamiltonian(n=3, d=2, terms=bad, power=(1.0, 3.0))
    # declared power decay must actually hold
    strong = (LocalTerm(support=(0, 2), matrix=np.kron(Z, Z)),)
    with pytest.raises(ValueError, match="exceeds decay cap"):
        ChainHamiltonian(n=3, d=2, terms=strong, power=(1.0, 3.0))
    with pytest.raises(EntspecError, match="dense chain total dim 1073741824 > cap"):
        build_nearest_neighbor_chain(30, d=2, j=1.0).dense()
    # a two-site term needs a 4 x 4 matrix on qubits
    with pytest.raises(ValueError, match="does not match its support dims"):
        ChainHamiltonian(n=2, d=2, terms=(LocalTerm(support=(0, 1), matrix=Z),))
    # a chain with no power joins adjacent sites only
    with pytest.raises(ValueError, match=r"term on \(0, 2\) in a nearest-neighbour chain"):
        ChainHamiltonian(n=3, d=2, terms=strong)
    # the long-range constants divide by eta - 2
    pair = (LocalTerm(support=(0, 1), matrix=np.kron(Z, Z)),)
    for eta in (2.0, 1.5):
        with pytest.raises(EntspecError, match=f"eta = {eta}, not > 2"):
            ChainHamiltonian(n=2, d=2, terms=pair, power=(1.0, eta))
    # a nearest-neighbour chain has no power for the long-range constants
    with pytest.raises(ValueError, match="no power-law decay"):
        long_range_constants(ChainHamiltonian(n=2, d=2, terms=pair))


def test_nan_eta_raises_eta_too_small():
    # eta <= 2 is false for NaN: the chain took it with a NaN cap, and the
    # builder ended in LinAlgError on the norm of a NaN term
    pair = (LocalTerm(support=(0, 1), matrix=np.kron(Z, Z)),)
    with pytest.raises(EntspecError, match="eta = nan, not > 2"):
        ChainHamiltonian(n=2, d=2, terms=pair, power=(1.0, math.nan))
    with pytest.raises(EntspecError, match="eta = nan, not > 2"):
        build_long_range_ising(4, eta=math.nan)


def test_long_range_ising_shape():
    n = 5
    chain = build_long_range_ising(n, d=2, j0=1.0, eta=3.0, hx=0.4, hz=0.2)
    pair_terms = [t for t in chain.terms if len(t.support) == 2]
    assert len(pair_terms) == n * (n - 1) // 2
    assert chain.power == (1.0, 3.0)
    assert chain.boundary_strength_cap() == pytest.approx(3.0, abs=1e-12)
    # a negative coupling keeps the pair norms, so the power reads |j0|
    flipped = build_long_range_ising(n, d=2, j0=-1.0, eta=3.0, hx=0.4, hz=0.2)
    assert flipped.power == chain.power
    assert np.array_equal(flipped.terms[0].matrix, -chain.terms[0].matrix)
    with pytest.raises(EntspecError, match="eta = 1.5, not > 2"):
        build_long_range_ising(4, eta=1.5)


def test_saturation_state_matches_direct_exponential():
    """Closed-form pulse state against expm(-i V x) |00>."""
    dyn = build_saturation_dynamics(m_levels=3, j=0.7, n_pairs=2)
    d = 4
    psi0 = basis_product_state((d, d), (0, 0)).amps
    for x in (0.1, 0.45):
        direct = expm(-1j * dyn.v.matrix * x) @ psi0
        closed = dyn.per_pair_state(x).amps
        assert np.linalg.norm(direct - closed) < 1e-12
        spec = schmidt_decompose(dyn.per_pair_state(x), Cut.of([0], 2))
        assert np.allclose(spec.coeffs, dyn.per_pair_spectrum(x).coeffs, atol=1e-12)


def test_saturation_protocol_entropy():
    dyn = build_saturation_dynamics(m_levels=4, j=1.0, n_pairs=10)
    t = 1.0
    e = dyn.protocol_entropy_half(t)
    # hand-evaluated closed form 2 n ln(cos z + sqrt(M) sin z)
    assert e == pytest.approx(6.404029359546116, abs=1e-12)
    assert dyn.protocol_entropy(0.5, t) == pytest.approx(e, abs=1e-10)
    assert dyn.in_window(t)
    assert dyn.rate_floor_check([t]).ok
    assert dyn.rate_lower_bound(t) == pytest.approx(4.8, abs=1e-12)
    with pytest.raises(ValueError):
        dyn.average_rate(0.0)
    with pytest.raises(ValueError, match="m_levels and n_pairs must be >= 1"):
        build_saturation_dynamics(0, 1.0, 1)


def test_saturation_rate_approaches_strength():
    dyn = build_saturation_dynamics(m_levels=4, j=1.0, n_pairs=1000)
    ratio = dyn.average_rate(1.0) / (2.0 * dyn.se_strength_exact)
    assert ratio == pytest.approx(0.997506645074399, abs=1e-12)
    assert abs(ratio - 1.0) < 0.02


def test_unbounded_spectrum_is_normalized():
    for d0 in (2, 16, 64):
        dyn = build_unbounded_dynamics(d0, 1.0, 1.0)
        lam = dyn.spectrum().coeffs
        assert float(np.sum(lam ** 2)) == pytest.approx(1.0, abs=1e-12)


def test_unbounded_entropy_values_and_bound():
    dyn = build_unbounded_dynamics(16, 1.0, 1.0)
    assert renyi_entropy(dyn.spectrum(), 0.25) == pytest.approx(2.133600597822918, abs=1e-12)
    assert dyn.entropy_lower_bound(0.25) == pytest.approx(
        -0.462098120373297, abs=1e-12
    )
    for d0 in (16, 256):
        rep = unbounded_experiment(build_unbounded_dynamics(d0, 1.0, 1.0), [0.1, 0.25, 0.4])
        assert all(c.ok for c in rep["checks"].values())


def test_unbounded_validation():
    with pytest.raises(EntspecError, match=r"time too long: J\*t = 1.5 > 1"):
        build_unbounded_dynamics(16, 1.0, 1.5)
    with pytest.raises(ValueError):
        build_unbounded_dynamics(1, 1.0, 0.5)
    # the spectrum is a list of d0 + 1 floats, so its length is capped
    with pytest.raises(EntspecError, match=f"d0 = {UNBOUNDED_D0_CAP + 1} > {UNBOUNDED_D0_CAP}"):
        build_unbounded_dynamics(UNBOUNDED_D0_CAP + 1, 1.0, 1.0)
    assert build_unbounded_dynamics(UNBOUNDED_D0_CAP, 1.0, 1.0).d0 == UNBOUNDED_D0_CAP
    with pytest.raises(EntspecError, match=r"order alpha = 0.6 not in \(0, 0.5\)"):
        build_unbounded_dynamics(16, 1.0, 1.0).entropy_lower_bound(0.6)


def test_toy_state_matches_direct_exponential():
    toy = ToyTwoQubit()
    psi0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    for t in (0.2, 0.7, 1.3):
        direct = expm(-1j * toy.hamiltonian * t) @ psi0
        assert np.linalg.norm(direct - toy.state(t).amps) < 1e-12


def test_toy_rates_match_finite_differences():
    toy = ToyTwoQubit()

    def entropy(alpha, t):
        return renyi_entropy(schmidt_decompose(toy.state(t), Cut.of([0], 2)), alpha)

    h = 1e-6
    for alpha in (0.5, 0.75, 1.0, 2.0):
        for t in (0.3, 0.6, 1.1):
            fd = (entropy(alpha, t + h) - entropy(alpha, t - h)) / (2 * h)
            assert toy.rate(alpha, t) == pytest.approx(fd, abs=1e-5)
    # frozen closed-form values
    assert toy.rate(0.5, 0.3) == pytest.approx(1.054983012341249, abs=1e-12)
    assert toy.rate(1.0, 0.3) == pytest.approx(1.325019849425193, abs=1e-12)
    assert toy.rate(math.inf, 0.2) == pytest.approx(0.405420071017345, abs=1e-12)


def test_toy_rate_trichotomy():
    toy = ToyTwoQubit()
    # t -> 0+ limit: diverges below order 1/2, 2 at 1/2, 0 above
    assert toy.rate(0.25, 1e-4) > 50.0
    assert toy.rate(0.5, 1e-4) == pytest.approx(2.0, abs=1e-3)
    assert abs(toy.rate(0.75, 1e-4)) < 0.1
    # at t = 0 itself the von Neumann formula would take the log of 1/0
    assert toy.rate(1.0, 0.0) == 0.0


def test_product_state_helpers(rng):
    st = basis_product_state((2, 3, 2), (1, 2, 0))
    assert st.amps[1 * 6 + 2 * 2 + 0] == pytest.approx(1.0)
    assert st.norm == pytest.approx(1.0)
    rnd = random_product_state((2, 2, 2), rng)
    assert rnd.norm == pytest.approx(1.0, abs=1e-12)
    spec = schmidt_decompose(rnd, Cut.of([0], 3))
    assert spec.rank == 1


def test_random_dense_instance_structure(rng):
    for _ in range(5):
        h, v, state = random_dense_instance(rng)
        da, db = v.dim_a, v.dim_b
        assert da * db <= 256
        assert np.allclose(h, h.conj().T)
        # four terms, each coefficient in [0.1, 2)
        assert 0.4 <= v.weight < 8.0
        assert state.norm == pytest.approx(1.0, abs=1e-12)
        assert state.dims == (da, db)
    # both sides are at least 2-dimensional, so no instance fits below 4
    with pytest.raises(ValueError):
        random_dense_instance(rng, dim_cap=3)


def _assert_built_from(op, mat, terms):
    """op's matrix has the bytes of mat, and its weight the bits of the sum
    of the terms' |J_j|."""
    assert op.matrix.tobytes() == mat.tobytes()
    weight = float(sum(abs(complex(j)) for j, _, _ in terms))
    assert np.array(op.weight).tobytes() == np.array(weight).tobytes()


def test_random_dense_instance_holds_no_term():
    """Each term is summed as it is drawn: 2,000 terms on a 12 x 14 draw,
    whose factors alone would take 11 MB, peak below 4 MiB."""
    tracemalloc.start()
    try:
        _, v, _ = random_dense_instance(np.random.default_rng(5), n_terms=2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (v.dim_a, v.dim_b) == (12, 14)
    assert peak < 4 * 2 ** 20


def test_decomposed_builders_repeat_their_summed_matrix_bytes():
    """Each builder's matrix equals, byte for byte, its term sum written out
    here as a loop, and its weight is the sum of those terms' |J_j|."""
    # random coupling: P, Q, then c for each term, from the same stream
    ref_rng, rng = np.random.default_rng(3), np.random.default_rng(3)
    mat = np.zeros((12, 12), dtype=complex)
    terms = []
    for _ in range(3):
        p = _random_unit_hermitian(ref_rng, 3)
        q = _random_unit_hermitian(ref_rng, 4)
        c = float(ref_rng.uniform(0.1, 2.0))
        mat += c * np.kron(p, q)
        terms.append((c, p, q))
    _assert_built_from(_random_coupling(rng, 3, 4, 3, 0.1, 2.0), mat, terms)

    m_levels, j = 3, -0.7
    d = m_levels + 1
    mat = np.zeros((d * d, d * d), dtype=complex)
    terms = []
    for jj in range(1, m_levels + 1):
        ket = np.zeros((d, d), dtype=complex)
        ket[jj, 0] = 1.0
        mat += j * np.kron(ket, ket)
        mat += j * np.kron(ket.conj().T, ket.conj().T)
        terms += [(j, ket, ket), (j, ket.conj().T, ket.conj().T)]
    _assert_built_from(build_saturation_dynamics(m_levels, j, 2).v, mat, terms)

    mat = np.zeros((9, 9), dtype=complex)
    terms = []
    for s in range(3):
        e = np.zeros((3, 3), dtype=complex)
        e[s, s] = 1.0
        mat += np.kron(e, e)
        terms.append((1.0, e, e))
    _assert_built_from(build_ising_projector_interaction(3), mat, terms)

    mat = np.zeros((4, 4), dtype=complex)
    terms = []
    for a in range(2):
        for b in range(2):
            e_ab = np.zeros((2, 2), dtype=complex)
            e_ab[a, b] = 1.0
            e_ba = np.zeros((2, 2), dtype=complex)
            e_ba[b, a] = 1.0
            mat += np.kron(e_ab, e_ba)
            terms.append((1.0, e_ab, e_ba))
    _assert_built_from(build_swap_interaction(), mat, terms)
