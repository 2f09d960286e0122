"""Entangling-strength estimators: bracketing, known targets, closed forms."""

import math

import numpy as np
import pytest

from entspec import (
    BipartiteOperator,
    EntspecError,
    SeEstimate,
    ToyTwoQubit,
    best_upper,
    build_ising_projector_interaction,
    build_long_range_ising,
    build_saturation_dynamics,
    build_swap_interaction,
    operator_schmidt_upper,
    random_dense_instance,
    se_lower_search,
)
from entspec.se_strength import _operator_schmidt, _opnorm, _search, bracket_check

X = np.array([[0.0, 1.0], [1.0, 0.0]])
Y = np.array([[0.0, -1j], [1j, 0.0]])
Z = np.array([[1.0, 0.0], [0.0, -1.0]])


@pytest.mark.parametrize("da, db", [(2, 3), (3, 5)])
def test_operator_schmidt_rebuilds_with_orthonormal_factors(rng, da, db):
    n = da * db
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    split = list(zip(*_operator_schmidt(m, da, db)))
    rebuilt = sum(s * np.kron(e, f) for s, e, f in split)
    assert np.max(np.abs(rebuilt - m)) <= 1e-12
    es = np.array([e.reshape(-1) for _, e, _ in split])
    fs = np.array([f.reshape(-1) for _, _, f in split])
    assert np.max(np.abs(es.conj() @ es.T - np.eye(len(split)))) <= 1e-12
    assert np.max(np.abs(fs.conj() @ fs.T - np.eye(len(split)))) <= 1e-12


def test_bipartite_operator_validation():
    with pytest.raises(ValueError):
        BipartiteOperator((2,), (2,), np.eye(3))
    with pytest.raises(ValueError, match="unit operator norm"):
        # factor operator norm 2, not 1
        BipartiteOperator.from_terms((2,), (2,), [(1.0, 2 * Z, Z)])
    # a weight only comes from the terms, so it cannot disagree with the matrix
    with pytest.raises(TypeError):
        BipartiteOperator((2,), (2,), np.kron(X, X), weight=1.0)


@pytest.mark.parametrize("coeffs", [(0.3, 0.4, 1.7), (0.5 - 0.25j, 1j, 2.0 + 1j),
                                    (-0.5, -1.25, 0.75)])
def test_from_terms_is_the_weighted_kron_sum(rng, coeffs):
    """The matrix is the term sum with each coefficient as given, byte for
    byte, and the weight is sum(|J_j|), bit for bit, both from one pass
    over a one-shot iterator."""
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    g = (g + g.conj().T) / 2
    g = g / np.linalg.norm(g, 2)
    terms = [(coeffs[0], Z, np.eye(3)), (coeffs[1], Y, g), (coeffs[2], X, np.diag([1, -1, 1]))]
    op = BipartiteOperator.from_terms((2,), (3,), iter(terms))
    ref = np.zeros((6, 6), dtype=complex)
    for j, a, b in terms:
        ref += j * np.kron(a, b)
    assert op.matrix.tobytes() == ref.tobytes()
    assert (op.dims_a, op.dims_b) == ((2,), (3,))
    weight = float(sum(abs(complex(j)) for j, _, _ in terms))
    assert type(op.weight) is float
    assert np.array(op.weight).tobytes() == np.array(weight).tobytes()


def test_decomposition_upper_is_coefficient_sum(rng):
    """best_upper is the least of the operator-Schmidt bound and the term
    weight, and the Schmidt bound alone on a bare matrix."""
    op = BipartiteOperator.from_terms((2,), (2,), [(0.3, Z, Z), (0.4, X, X)])
    assert op.weight == pytest.approx(0.7, abs=1e-12)
    picked = set()
    for _ in range(10):
        _, v, _ = random_dense_instance(rng, dim_cap=16, n_terms=2)
        schmidt = operator_schmidt_upper(v)
        assert best_upper(v) == min(schmidt, v.weight)
        picked.add(best_upper(v) == v.weight)
        bare = BipartiteOperator(v.dims_a, v.dims_b, v.matrix)
        assert bare.weight is None
        assert best_upper(bare) == schmidt
    # each bound is the lesser on some draw
    assert picked == {True, False}


def test_operator_schmidt_upper_on_product_coupling():
    op = BipartiteOperator((2,), (2,), np.kron(Z, Z))
    # single reshuffled singular value 2, each factor has operator norm 1/sqrt(2)
    assert operator_schmidt_upper(op) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("da, db", [(2, 2), (3, 4), (4, 4)])
def test_operator_schmidt_upper_matches_per_factor_norms_exactly(rng, da, db):
    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for m in (np.kron(cplx(da, da), cplx(db, db)), cplx(da * db, da * db)):
        op = BipartiteOperator((da,), (db,), m)
        total = 0.0
        for s, e, f in zip(*_operator_schmidt(m, da, db)):
            total += s * _opnorm(e) * _opnorm(f)
        assert operator_schmidt_upper(op) == float(total)


def test_lower_never_exceeds_upper(rng):
    for _ in range(5):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        op = BipartiteOperator((2,), (2,), m + m.conj().T)
        assert se_lower_search(op, seeds=4, iterations=60).lower >= 0.0
    # the bracket is a reported check with 1e-9 of slack, not a constructor raise
    assert bracket_check([SeEstimate(lower=1.0 + 5e-10, upper=1.0, unconverged=0)]).margin > 0.0
    assert bracket_check([SeEstimate(lower=1.0 + 2e-9, upper=1.0, unconverged=0)]).margin < 0.0
    # the bracket coincides when it is narrower than 1e-6
    assert SeEstimate(lower=1.0, upper=1.0 + 0.9e-6, unconverged=0).coincides
    assert not SeEstimate(lower=1.0, upper=1.0 + 1.1e-6, unconverged=0).coincides


def test_search_saturates_product_coupling_sum():
    """M commuting product couplings: the strength equals the coefficient sum,
    reached on a Bell-ancilla product witness."""
    dyn = build_saturation_dynamics(m_levels=4, j=1.0, n_pairs=1)
    est = se_lower_search(dyn.v, seeds=6, iterations=150)
    assert est.lower == pytest.approx(dyn.se_strength_exact, abs=1e-4)
    # both proved routes only reach the doubled sum 2MJ here
    assert est.upper == pytest.approx(8.0, abs=1e-8)


def test_search_on_projector_interaction_is_exactly_one():
    op = build_ising_projector_interaction(3)
    est = se_lower_search(op, seeds=4, iterations=100)
    assert est.lower == pytest.approx(1.0, abs=1e-6)


def test_swap_needs_ancillas():
    op = build_swap_interaction()
    (bare, _, _), _ = _search(op.as_tensor(), 1, 1, seeds=6, iterations=150, seed=0)
    extended = se_lower_search(op, seeds=6, iterations=150)
    # ancillas strictly help for swap; sqrt(2) is the known lower target
    assert extended.lower >= bare - 1e-9
    assert extended.lower >= math.sqrt(2.0) - 1e-6


def test_toy_interaction_strength_is_one_despite_upper_two():
    toy = ToyTwoQubit()
    op = BipartiteOperator((2,), (2,), toy.hamiltonian)
    est = se_lower_search(op, seeds=6, iterations=150)
    # the reshuffle route only proves 2; the true supremum is 1
    assert est.upper == pytest.approx(2.0, abs=1e-9)
    assert est.lower == pytest.approx(toy.se_strength_exact, abs=1e-6)


def test_ancilla_embedding_never_hurts(rng):
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    op = BipartiteOperator((2,), (3,), m + m.conj().T)
    (base, _, _), _ = _search(op.as_tensor(), 1, 1, seeds=3, iterations=80, seed=0)
    big = se_lower_search(op, seeds=3, iterations=80)
    assert big.lower >= base - 1e-9


def test_search_counts_unconverged_starts():
    op = build_swap_interaction()
    # (1, 1) search: 3 seeds + 2 fixed starts; (2, 2) search: the same plus
    # the embedded (1, 1) witness
    assert se_lower_search(op, seeds=3, iterations=1).unconverged == 11
    assert _search(op.as_tensor(), 1, 1, seeds=3, iterations=1, seed=0)[1] == 5
    assert se_lower_search(op, seeds=3, iterations=500).unconverged < 11


def test_long_range_strength_cap():
    # eta J0 / (eta - 2), read from the chain's power
    assert build_long_range_ising(4, j0=1.0, eta=3.0).boundary_strength_cap() == pytest.approx(
        3.0, abs=1e-12)
    assert build_long_range_ising(4, j0=0.5, eta=4.0).boundary_strength_cap() == pytest.approx(
        1.0, abs=1e-12)
    with pytest.raises(EntspecError, match="eta = 2.0, not > 2"):
        build_long_range_ising(4, j0=1.0, eta=2.0)
