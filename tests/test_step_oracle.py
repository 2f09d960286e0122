"""The evolution step's bond truncation against a frozen oracle: the kernel
as it stood before its per-call overhead was trimmed, copied verbatim. A run
through the live kernel must give the same final tensors, byte for byte, and
the same certificate, to its repr."""

import math

import numpy as np
import pytest

from entspec import (
    TdmrgConfig, build_long_range_ising, build_nearest_neighbor_chain, default_step_count, mps,
    product_mps, tdmrg_run,
)
from entspec.mps import BondRecord


# ---- oracle: a verbatim copy of entspec.mps._truncate_bond ----

def _truncate_bond(t, d_cap, tolerance):
    """SVD-truncate the right bond of site tensor t[left, physical, right].

    Keeps at most d_cap values above tolerance, and at least one. Returns the
    left-orthonormal site tensor, the carry s_kept * Vh_kept for the next
    site, and the bond's record.
    """
    dl, d, dr = t.shape
    u, s, vh = np.linalg.svd(t.reshape(dl * d, dr), full_matrices=False)
    keep = int(min(d_cap, max(1, int(np.sum(s > tolerance)))))
    kept = s[:keep]
    record = BondRecord(delta2=float(np.sum(s[keep:] ** 2)), zeta=float(np.sum(kept)))
    return u[:, :keep].reshape(dl, d, keep), kept[:, None] * vh[:keep], record


# ---- the three chains ----

def _config(chain, t, eps_target, d_cap, initial):
    n_steps = default_step_count(chain.g, chain.n, t, eps_target)
    return TdmrgConfig(chain=chain, t=t, n_steps=n_steps, d_cap=d_cap, initial=initial)


def _plus(n, d):
    return product_mps(n, d, local_vectors=[np.ones(d) / math.sqrt(d)] * n)


CONFIGS = {
    # criterion 07's chain over five steps: every d = 2 pair term has one
    # factor; cap 4 stages compressions that discard, cap 128 discards nothing
    **{f"criterion-07 d_cap={cap}": lambda cap=cap: _config(
        build_long_range_ising(8, d=2, j0=1.0, eta=3.0, hx=0.4, hz=0.2), 0.1, 1.0, cap,
        _plus(8, 2)) for cap in (4, 128)},
    # the tdmrg experiment at its defaults (180 steps)
    "tdmrg defaults": lambda: _config(
        build_nearest_neighbor_chain(8, 2, 1.0, hx=0.4, hz=0.3), 0.3, 0.2, 16, product_mps(8, 2)),
    # a qutrit clock chain, whose pair terms split into two factors each
    "qutrit d_cap=6": lambda: _config(
        build_long_range_ising(5, d=3, j0=1.0, eta=3.0, hx=0.4, hz=0.2), 0.1, 1.0, 6,
        _plus(5, 3)),
}


def _fingerprint(cfg):
    final, cert = tdmrg_run(cfg)
    return [t.tobytes() for t in final.tensors], repr(cert)


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_bond_truncation_matches_the_oracle_bit_for_bit(label, monkeypatch):
    cfg = CONFIGS[label]()
    live = _fingerprint(cfg)
    monkeypatch.setattr(mps, "_truncate_bond", _truncate_bond)
    assert live == _fingerprint(cfg)
