"""MPS factorization, arithmetic, compression accounting, and scaling."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entspec import (
    Cut,
    LocalTerm,
    MatrixProductState,
    MismatchError,
    PureState,
    TooLargeError,
    add,
    apply_local_term,
    compress,
    from_dense,
    mps_inner,
    mps_norm,
    product_mps,
    schmidt_decompose,
    to_dense,
)
from entspec.mps import _compress_blocks, _sum_blocks

from helpers import random_hermitian, random_state

X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def _rand_mps(rng, n, d, bond):
    """Random MPS with (approximately) uniform internal bond dimension."""
    ts = []
    left = 1
    for i in range(n):
        right = bond if i < n - 1 else 1
        t = rng.standard_normal((left, d, right)) + 1j * rng.standard_normal(
            (left, d, right)
        )
        ts.append(t / np.linalg.norm(t))
        left = right
    return MatrixProductState(tensors=tuple(ts))


def test_mps_validation():
    with pytest.raises(ValueError):
        MatrixProductState(tensors=())
    good = np.zeros((1, 2, 1))
    with pytest.raises(ValueError):
        MatrixProductState(tensors=(np.zeros((2, 2, 1)), good))
    with pytest.raises(ValueError):
        MatrixProductState(tensors=(np.zeros((1, 2, 3)), np.zeros((2, 2, 1))))
    with pytest.raises(ValueError, match="3 indices"):
        MatrixProductState((np.ones((1, 2)),))
    # states of different lengths
    two, three = product_mps(2, 2), product_mps(3, 2)
    with pytest.raises(MismatchError):
        add([two, three], [1.0, 1.0])
    with pytest.raises(MismatchError):
        mps_inner(two, three)


def test_left_canonical_checks_every_site_but_the_last(rng):
    """A factorized state passes the Gram check; scaling one of its
    left-orthonormal sites by 1.1 fails it, and the last site is free."""
    mps, _ = from_dense(random_state(rng, (2,) * 5), d_max=4)
    ts = list(mps.tensors)
    MatrixProductState(tensors=tuple(ts[:-1] + [1.1 * ts[-1]]), left_canonical=True)
    for i in range(4):
        scaled = ts[:i] + [1.1 * ts[i]] + ts[i + 1:]
        with pytest.raises(ValueError, match=f"tensor {i} not left-orthonormal"):
            MatrixProductState(tensors=tuple(scaled), left_canonical=True)
        MatrixProductState(tensors=tuple(scaled))


@given(st.integers(2, 8), st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_round_trip_dense(n, seed):
    rng = np.random.default_rng(seed)
    state = random_state(rng, (2,) * n)
    mps, rec = from_dense(state, d_max=state.amps.size)
    assert rec.sum_delta2 == pytest.approx(0.0, abs=1e-20)
    back = to_dense(mps)
    assert np.linalg.norm(back.amps - state.amps) < 1e-10
    assert mps_norm(mps) == pytest.approx(1.0, abs=1e-10)


def test_from_dense_truncation_records_schmidt_data(rng):
    state = random_state(rng, (2,) * 6)
    mps, rec = from_dense(state, d_max=3)
    # bond 2 is the first bond the cap bites, so its record carries the exact
    # Schmidt data of the input state; later bonds see a perturbed state
    spec = schmidt_decompose(state, Cut.of(range(2), 6))
    first = rec.bonds[1]
    assert first.delta2 == pytest.approx(float(np.sum(spec.coeffs[3:] ** 2)), abs=1e-10)
    assert first.zeta == pytest.approx(float(np.sum(spec.coeffs[:3])), abs=1e-10)
    later = schmidt_decompose(state, Cut.of(range(3), 6))
    assert rec.bonds[2].delta2 <= float(np.sum(later.coeffs[3:] ** 2)) + 1e-9
    err2 = np.linalg.norm(to_dense(mps).amps - state.amps) ** 2
    assert err2 <= rec.stitching_bound() ** 2 + 1e-10


def test_from_dense_requires_uniform_dimension(rng):
    state = random_state(rng, (2, 3, 2))
    with pytest.raises(MismatchError):
        from_dense(state, d_max=state.amps.size)


def test_to_dense_cap():
    mps = product_mps(30, d=2)
    with pytest.raises(TooLargeError):
        to_dense(mps)


def test_product_mps_and_norm():
    v = np.array([1.0, 1.0]) / math.sqrt(2.0)
    mps = product_mps(4, d=2, local_vectors=[v] * 4)
    assert mps.max_bond == 1
    assert mps_norm(mps) == pytest.approx(1.0, abs=1e-12)
    dense = to_dense(mps)
    assert dense.amps[0] == pytest.approx(0.25, abs=1e-12)


def test_add_matches_dense(rng):
    states = [random_state(rng, (2,) * 5) for _ in range(3)]
    parts = [from_dense(s, d_max=s.amps.size)[0] for s in states]
    coeffs = [1.0, -0.5j, 0.3 + 0.7j]
    combo = add(parts, coeffs)
    want = sum(c * s.amps for c, s in zip(coeffs, states))
    assert np.linalg.norm(to_dense(combo).amps - want) < 1e-10
    inner = [sum(p.bond_dims[b] for p in parts) for b in range(1, 5)]
    assert combo.bond_dims == (1, *inner, 1)


def _with_signed_zeros(rng, mps):
    """The state with about a third of its real and imaginary parts set to -0.0."""
    ts = []
    for t in mps.tensors:
        t = t.copy()
        t.real[rng.random(t.shape) < 0.3] = -0.0
        t.imag[rng.random(t.shape) < 0.3] = -0.0
        ts.append(t)
    return MatrixProductState(tensors=tuple(ts))


def _direct_sum_reference(states, coeffs):
    """Site tensors of the direct sum, each block multiplied into place in a
    zero tensor: by its coefficient on the first site, by 1.0 elsewhere."""
    n, d = states[0].n_sites, states[0].d
    if n == 1:
        t = coeffs[0] * states[0].tensors[0]
        for s, c in zip(states[1:], coeffs[1:]):
            t = t + c * s.tensors[0]
        return [t]
    ts = []
    for i in range(n):
        blocks = [s.tensors[i] for s in states]
        rows = 1 if i == 0 else sum(b.shape[0] for b in blocks)
        cols = 1 if i == n - 1 else sum(b.shape[2] for b in blocks)
        t = np.zeros((rows, d, cols), dtype=complex)
        l = r = 0
        for b, c in zip(blocks, coeffs if i == 0 else [1.0] * len(blocks)):
            lb, _, rb = b.shape
            at_l = slice(0, 1) if i == 0 else slice(l, l + lb)
            at_r = slice(0, 1) if i == n - 1 else slice(r, r + rb)
            np.multiply(b, c, out=t[at_l, :, at_r])
            l += lb
            r += rb
        ts.append(t)
    return ts


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_compress_sum_equals_compress_of_add_bytes(n, d):
    """A direct sum of site-tensor tuples, compressed block by block, is bit
    for bit the compression of the built sum."""
    rng = np.random.default_rng(10 * n + d)
    base = _with_signed_zeros(rng, _rand_mps(rng, n, d, 3))
    states = [base, _rand_mps(rng, n, d, 2)]
    if n > 1:
        # the pieces of a two-site term, non-adjacent where the chain allows
        h = random_hermitian(rng, d * d)
        states += [apply_local_term(base, LocalTerm(support=(0, n - 1), matrix=h)),
                   apply_local_term(base, LocalTerm(support=(max(0, n - 4), n - 1),
                                                    matrix=h))]
    complex_coeffs = [1.0] + list(rng.standard_normal(len(states) - 1)
                                  + 1j * rng.standard_normal(len(states) - 1))
    step_coeffs = [1.0] + [-1j * 0.01] * (len(states) - 1)
    truncated = False
    for parts, coeffs in (([base], [1.0]), (states, complex_coeffs), (states, step_coeffs)):
        for d_cap, tolerance in ((1, 0.0), (2, 1e-14), (64, 0.0), (64, 1e-14)):
            summed = add(parts, coeffs)
            ref = _direct_sum_reference(parts, coeffs)
            assert [t.tobytes() for t in summed.tensors] == [t.tobytes() for t in ref]
            # compress is this single-block path at tolerance 0
            want, want_rec = _compress_blocks([[t] for t in summed.tensors], d_cap, tolerance)
            sites = [p.tensors for p in parts]
            got, got_rec = _compress_blocks(_sum_blocks(sites, coeffs), d_cap, tolerance)
            assert [t.shape for t in got.tensors] == [t.shape for t in want.tensors]
            assert [t.tobytes() for t in got.tensors] == [t.tobytes() for t in want.tensors]
            assert repr(got_rec) == repr(want_rec)
            truncated |= want_rec.sum_delta2 > 0.0
    assert truncated == (n > 1)


def test_compress_sum_tolerance_drops_small_values():
    up = product_mps(4, d=2, local_vectors=[np.array([1.0, 0.0])] * 4)
    down = product_mps(4, d=2, local_vectors=[np.array([0.0, 1.0])] * 4)
    sites = [up.tensors, down.tensors]
    # one Schmidt value of 1e-15 on every bond: kept at tolerance 0, dropped at 1e-14
    kept, kept_rec = _compress_blocks(_sum_blocks(sites, [1.0, 1e-15]), 8, 0.0)
    assert kept.bond_dims == (1, 2, 2, 2, 1)
    assert kept_rec.sum_delta2 == 0.0
    cut, cut_rec = _compress_blocks(_sum_blocks(sites, [1.0, 1e-15]), 8, 1e-14)
    assert cut.bond_dims == (1, 1, 1, 1, 1)
    assert cut_rec.sum_delta2 == pytest.approx(1e-30, rel=1e-3)


def test_sum_blocks_scaling_by_one_clears_signed_zeros():
    """The middle and last blocks of a direct sum are each tensor times 1.0,
    which is not the tensor itself: a complex -0.0 with a negative other part
    comes back +0.0, so dropping the scaling would change the sum's bytes."""
    t = np.full((1, 2, 1), complex(-0.0, -1.0))
    sites = _sum_blocks([[np.ones((1, 2, 1), dtype=complex), t, t]], [1.0])
    assert np.signbit(t.real).all()
    assert not any(np.signbit(b.real).any() for blocks in sites[1:] for b in blocks)


def test_apply_local_term_matches_dense(rng):
    state = random_state(rng, (2,) * 5)
    mps, _ = from_dense(state, d_max=state.amps.size)
    one = LocalTerm(support=(2,), matrix=0.7 * X)
    got = to_dense(apply_local_term(mps, one)).amps
    want = np.kron(np.kron(np.eye(4), 0.7 * X), np.eye(4)) @ state.amps
    assert np.linalg.norm(got - want) < 1e-10
    # non-adjacent two-site term
    two = LocalTerm(support=(1, 3), matrix=0.3 * np.kron(Z, X))
    got2 = to_dense(apply_local_term(mps, two)).amps
    embed = np.kron(
        np.kron(np.kron(np.eye(2), 0.3 * Z), np.eye(2)), np.kron(X, np.eye(2))
    )
    assert np.linalg.norm(got2 - embed @ state.amps) < 1e-10
    # a complex Hermitian term, whose split factors are not real
    h = random_hermitian(rng, 4)
    got3 = to_dense(apply_local_term(mps, LocalTerm(support=(1, 3), matrix=h))).amps
    want3 = np.einsum(
        "apbq,xbyqz->xaypz", h.reshape(2, 2, 2, 2), state.amps.reshape((2,) * 5)
    )
    assert np.linalg.norm(got3 - want3.reshape(-1)) < 1e-10


def test_apply_local_term_validation(rng):
    state = random_state(rng, (2,) * 4)
    mps, _ = from_dense(state, d_max=state.amps.size)
    # a term has one or two sites, so no three-site term reaches the state
    with pytest.raises(ValueError, match="more than two sites"):
        LocalTerm(support=(0, 1, 2), matrix=np.eye(8))
    with pytest.raises(MismatchError):
        apply_local_term(mps, LocalTerm(support=(5,), matrix=X))


def test_compress_is_optimal_per_bond(rng):
    """Truncation error against the dense Schmidt tails it must match."""
    state = random_state(rng, (2,) * 7)
    mps, _ = from_dense(state, d_max=state.amps.size)
    out, rec = compress(mps, 4)
    assert out.max_bond <= 4
    for cut, bond in enumerate(rec.bonds, start=1):
        spec = schmidt_decompose(state, Cut.of(range(cut), 7))
        keep = min(4, spec.coeffs.size)
        # compression happens in sequence, so later bonds see a slightly
        # perturbed state; tails still agree to the truncation scale
        assert bond.delta2 <= float(np.sum(spec.coeffs[keep:] ** 2)) + 1e-9
    err = np.linalg.norm(to_dense(out).amps - state.amps)
    assert err <= rec.stitching_bound() + 1e-9
    assert rec.max_zeta <= math.sqrt(4.0) + 1e-9  # zeta <= sqrt(D) at unit norm


def test_compress_idempotent_zeta_monotone(rng):
    state = random_state(rng, (2,) * 6)
    mps, _ = from_dense(state, d_max=state.amps.size)
    once, rec1 = compress(mps, 3)
    twice, rec2 = compress(once, 3)
    assert rec2.sum_delta2 <= 1e-16
    assert rec2.max_zeta <= rec1.max_zeta + 1e-10
    assert np.linalg.norm(to_dense(twice).amps - to_dense(once).amps) < 1e-10


def test_mps_inner_and_expectation(rng):
    a = random_state(rng, (2,) * 5)
    b = random_state(rng, (2,) * 5)
    ma, _ = from_dense(a, d_max=a.amps.size)
    mb, _ = from_dense(b, d_max=b.amps.size)
    assert mps_inner(ma, mb) == pytest.approx(np.vdot(a.amps, b.amps), abs=1e-10)
    term = LocalTerm(support=(1, 2), matrix=np.kron(X, Z))
    embed = np.kron(np.kron(np.eye(2), np.kron(X, Z)), np.eye(4))
    want = np.vdot(a.amps, embed @ a.amps)
    assert mps_inner(ma, apply_local_term(ma, term)) == pytest.approx(want, abs=1e-10)


def _saturated_mps(rng, n, bond):
    """Qubit MPS whose central bonds genuinely reach the requested dimension."""
    ts = []
    left = 1
    for i in range(n):
        right = min(bond, 2 ** (i + 1), 2 ** (n - i - 1)) if i < n - 1 else 1
        t = rng.standard_normal((left, 2, right)) + 1j * rng.standard_normal(
            (left, 2, right)
        )
        ts.append(t / np.linalg.norm(t))
        left = right
    return MatrixProductState(tensors=tuple(ts))


def test_compress_work_scales_like_cubed_bond(rng, monkeypatch):
    """Counted factorization work grows with a log-log slope near 3.

    Wall-clock exponents at these sizes are polluted by BLAS efficiency
    ramps, so the fit runs on m*n*min(m,n) work units per SVD/QR call.
    """
    real_svd, real_qr = np.linalg.svd, np.linalg.qr
    work = [0.0]

    def svd_counting(a, *args, **kw):
        m, n = a.shape[-2:]
        work[0] += m * n * min(m, n)
        return real_svd(a, *args, **kw)

    def qr_counting(a, *args, **kw):
        m, n = a.shape[-2:]
        work[0] += m * n * min(m, n)
        return real_qr(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "svd", svd_counting)
    monkeypatch.setattr(np.linalg, "qr", qr_counting)
    dims = (16, 32, 64, 128)
    totals = []
    for bond in dims:
        mps = _saturated_mps(rng, 20, bond)
        work[0] = 0.0
        compress(mps, bond)
        totals.append(work[0])
    slope = np.polyfit(np.log(dims), np.log(totals), 1)[0]
    assert 2.5 <= slope <= 3.5
