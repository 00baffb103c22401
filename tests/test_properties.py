"""Property checks of the one pair-set constructor, ``merge_pairs``.

Instances are drawn by hypothesis (derandomized, so every run sees the same
examples): a dimension up to 40, an orthonormal existing pair set, random
newcomers and a shift gamma.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from iterreg.preconditioner import SpectralPreconditioner, merge_pairs

PROPERTY = settings(derandomize=True, max_examples=50, deadline=None,
                    database=None)


def _orthonormal(rng, dim, count):
    q, _ = np.linalg.qr(rng.standard_normal((dim, count)))
    return q


@st.composite
def instances(draw):
    """(existing pair set, newcomer pairs, gamma) over a shared dimension."""
    dim = draw(st.integers(1, 40))
    old = draw(st.integers(0, dim))
    new = draw(st.integers(0, dim - old + 2))
    gamma = draw(st.floats(1e-3, 1e3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    existing = SpectralPreconditioner(
        draw(st.floats(1e-3, 1e3)), rng.uniform(0.1, 10.0, old),
        _orthonormal(rng, dim, old))
    pairs = [(float(lam), rng.standard_normal(dim))
             for lam in rng.uniform(0.1, 10.0, new)]
    return existing, pairs, gamma


def _gram_defect(p):
    return np.max(np.abs(p.vectors.T @ p.vectors - np.eye(p.pair_count)),
                  initial=0.0)


@PROPERTY
@given(instances())
def test_merge_output_is_orthonormal(case):
    existing, pairs, gamma = case
    merged = merge_pairs(existing, pairs, gamma)
    assert merged.gamma == gamma
    assert merged.pair_count <= min(existing.dim,
                                    existing.pair_count + len(pairs))
    assert _gram_defect(merged) <= 1e-12


@PROPERTY
@given(instances())
def test_existing_pairs_pass_through(case):
    existing, pairs, gamma = case
    merged = merge_pairs(existing, pairs, gamma)
    j = existing.pair_count
    np.testing.assert_array_equal(merged.lambdas[:j], existing.lambdas)
    np.testing.assert_allclose(merged.vectors[:, :j], existing.vectors,
                               rtol=0, atol=1e-12)


@PROPERTY
@given(instances())
def test_merging_a_pair_set_into_itself_adds_nothing(case):
    existing, pairs, gamma = case
    merged = merge_pairs(existing, pairs, gamma)
    again = merge_pairs(merged, list(zip(merged.lambdas, merged.vectors.T)),
                        gamma)
    np.testing.assert_array_equal(again.lambdas, merged.lambdas)
    np.testing.assert_allclose(again.vectors, merged.vectors,
                               rtol=0, atol=1e-12)


@PROPERTY
@given(st.integers(1, 40), st.integers(0, 40), st.floats(1e-3, 1e3),
       st.integers(0, 2**32 - 1))
def test_merge_into_empty_applies_like_direct_construction(dim, count, gamma,
                                                           seed):
    # A fresh pair set built by merging into the empty preconditioner acts
    # as the one constructed directly from the same orthonormal pairs.
    rng = np.random.default_rng(seed)
    count = min(count, dim)
    lambdas = rng.uniform(0.1, 10.0, count)
    vectors = _orthonormal(rng, dim, count)
    merged = merge_pairs(SpectralPreconditioner.empty(gamma, dim),
                         list(zip(lambdas, vectors.T)), gamma)
    direct = SpectralPreconditioner(gamma, lambdas, vectors)
    assert merged.pair_count == direct.pair_count
    x = rng.standard_normal(dim)
    for apply in ("apply", "apply_inverse", "apply_inv_sqrt", "apply_sqrt"):
        got = getattr(merged, apply)(x)
        want = getattr(direct, apply)(x)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
