"""The slope pass memoized per coefficient set: a memo hit gives the fresh solve bit for bit."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_linear_coeffs, random_tree, replace_fields, uniform_tree
from fbsde import (
    AdaptedProcess,
    ContinuationOptions,
    NonFiniteInput,
    Unsolvable,
    build_tree,
    canonicalize,
    demo_monotone_problem,
    linear,
    riccati_backward,
    solve_continuation,
    solve_linear,
    solve_special,
    special_coefficients,
)
from fbsde.linear import _FIELDS

instances = st.tuples(
    st.integers(0, 2**32 - 1),  # seed
    st.integers(2, 3),  # N
    st.integers(1, 3),  # T
    st.floats(-2.0, 2.0),  # x0
)


def inhomogeneities(rng, tree):
    """(D, D_bar, D_hat, g) of a conftest coefficient set; D_hat over times 1..T."""
    c = random_linear_coeffs(rng, tree)
    return c.D, c.D_bar, c.D_hat[1:], c.g


def reference_extended_contraction_matrix(N):
    """The special form's C_bar, negated, as it was once built by hand: the
    N x N matrix sending a row to its canonical form (zero last column)."""
    mat = np.zeros((N, N))
    mat[:N - 1, :N - 1] = np.eye(N - 1)
    mat[N - 1, :N - 1] = -1.0
    return mat


@pytest.mark.parametrize("N", range(2, 7))
def test_special_diffusion_matrix_is_the_canonical_form_of_the_identity(N):
    # bit for bit, signed zeros included, at every non-leaf node
    want = (-reference_extended_contraction_matrix(N)).tobytes()
    assert (-canonicalize(np.eye(N))).tobytes() == want
    c_bar = special_coefficients(build_tree(N, 2)).arrays["C_bar"]
    assert all(mat.tobytes() == want for mat in c_bar)


def assert_levels_identical(mine, theirs):
    assert len(mine) == len(theirs)
    for a, b in zip(mine, theirs):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.shape == b.shape and np.array_equal(a, b)


def assert_same_result(mine, ref):
    assert type(mine) is type(ref)
    if isinstance(ref, Unsolvable):
        assert mine.singular_nodes == ref.singular_nodes
    else:
        for t in range(ref.X.tree.T + 1):
            assert np.array_equal(mine.X.level(t), ref.X.level(t))
            assert np.array_equal(mine.Y.level(t), ref.Y.level(t))
        for t in range(ref.X.tree.T):
            assert np.array_equal(mine.Z.level(t), ref.Z.level(t))
        assert mine.residuals == ref.residuals
    assert_levels_identical(mine.riccati.P_levels, ref.riccati.P_levels)
    assert_levels_identical(mine.riccati.p_levels, ref.riccati.p_levels)
    assert_levels_identical(mine.riccati.gamma_levels, ref.riccati.gamma_levels)
    assert mine.riccati.certificate.verdicts == ref.riccati.certificate.verdicts


@settings(max_examples=60, deadline=None)
@given(instances, st.booleans())
def test_factored_solve_equals_the_one_shot_solve(instance, special):
    seed, N, T, x0 = instance
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, N, T)
    base = special_coefficients(tree) if special else random_linear_coeffs(rng, tree)
    riccati_backward(tree, base)
    memo = base._memo[tree]
    shared = [f.name for f in dataclasses.fields(linear._SlopePass)]
    # two draws through one base: nothing of a solve may leak into the next
    for _ in range(2):
        D, D_bar, D_hat, g = inhomogeneities(rng, tree)
        if special:
            mine = solve_special(tree, D, D_bar, D_hat, g, x0, form=base)
            fresh = special_coefficients(tree, D, D_bar, D_hat, g)
        else:
            mine = solve_linear(tree, base.with_inhomogeneities(D, D_bar, D_hat, g), x0)
            fresh = replace_fields(base, D=D, D_bar=D_bar, D_hat=D_hat, g=g)
        ref = solve_linear(tree, fresh, x0)
        # a memo hit reads the memo's own objects; the fresh solve none of them
        assert all(getattr(mine.riccati, name) is getattr(memo, name) for name in shared)
        assert not any(getattr(ref.riccati, name) is getattr(memo, name) for name in shared)
        assert_same_result(mine, ref)


@pytest.mark.parametrize(
    "T, scale, opts, halvings",
    [(3, 0.1, ContinuationOptions(), 0),
     (2, 0.6, ContinuationOptions(delta=1.0, max_iterations=10), 2)],
)
def test_one_backward_pass_per_ladder_attempt(monkeypatch, T, scale, opts, halvings):
    # the self-coupled base is built, validated and factored once per solve,
    # however many ladders the halvings build
    calls = {"slopes": 0, "riccati": 0, "validate": 0, "special": 0}

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    monkeypatch.setattr(linear, "_slope_pass", counting("slopes", linear._slope_pass))
    monkeypatch.setattr(linear, "riccati_backward", counting("riccati", linear.riccati_backward))
    monkeypatch.setattr(linear.LinearCoefficients, "validate",
                        counting("validate", linear.LinearCoefficients.validate))
    monkeypatch.setattr(linear, "solve_special", counting("special", linear.solve_special))
    tree = uniform_tree(2, T)
    sol, stats = solve_continuation(tree, demo_monotone_problem(tree, scale), 1.0, opts)
    assert max(sol.residuals.forward, sol.residuals.backward) <= opts.tolerance
    assert stats.halvings == halvings
    assert calls["slopes"] == calls["validate"] == 1
    # the stats count the inner solves of every attempt
    assert calls["riccati"] == calls["special"] == stats.inner_solves > 1


@pytest.mark.parametrize("field", ["D", "D_bar", "D_hat", "g"])
def test_a_nan_inhomogeneity_is_refused(field):
    rng = np.random.default_rng(5)
    tree = random_tree(rng, 2, 3)
    form = special_coefficients(tree)
    values = dict(zip(("D", "D_bar", "D_hat", "g"), inhomogeneities(rng, tree)))
    if field == "g":
        bad = values[field] = values[field].copy()
    else:
        values[field] = list(values[field])
        bad = values[field][-1] = values[field][-1].copy()
    bad.flat[0] = np.nan
    with pytest.raises(NonFiniteInput, match=f"coefficient {field} "):
        solve_special(tree, **values, x0=0.5, form=form)


def test_factored_levels_are_read_only():
    tree = uniform_tree(2, 2)
    form = special_coefficients(tree)
    coeffs = form.with_inhomogeneities(D=0.1)
    for name in _FIELDS:
        levels = getattr(coeffs, name)
        for lev in [levels] if name in ("G", "g") else levels[name.endswith("_hat"):]:
            with pytest.raises(ValueError, match="read-only"):
                lev.flat[0] = 0.5
        with pytest.raises(AttributeError, match="read-only"):
            setattr(coeffs, name, getattr(form, name))
    with pytest.raises(TypeError):
        coeffs.D[0] = np.zeros(1)
    # the copy's inhomogeneities are its own
    assert not np.shares_memory(coeffs.D[0], form.D[0])
    assert coeffs.B[0] is form.B[0]
    # so are the memoized slopes every later solve reads
    ric = riccati_backward(tree, coeffs)
    for lev in (*ric.P_levels[1:], *ric.gamma_levels):
        with pytest.raises(ValueError, match="read-only"):
            lev.flat[0] = 0.5


def test_every_level_is_a_read_only_view_of_one_array():
    rng = np.random.default_rng(5)
    tree = random_tree(rng, 3, 3)

    def views_of(levels, array):
        for lev in levels:
            assert lev.base is array and not lev.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                lev.flat[0] = 0.5

    assert not tree.rows.flags.writeable
    views_of(tree.transition, tree.rows)
    proc = AdaptedProcess(tree, 1, [rng.uniform(size=(tree.num_nodes(t), 2)) for t in (1, 2, 3)])
    assert proc.array.shape == (3 + 9 + 27, 2) and not proc.array.flags.writeable
    views_of(proc.levels, proc.array)
    views_of([proc.level(t) for t in proc.times], proc.array)

    form = random_linear_coeffs(rng, tree)
    D, D_bar, D_hat, g = inhomogeneities(rng, tree)
    copy = form.with_inhomogeneities(D, D_bar, D_hat, g)
    for coeffs in (form, copy):
        assert sorted(coeffs.arrays) == sorted(_FIELDS)
        for name, array in coeffs.arrays.items():
            assert not array.flags.writeable
            levels = getattr(coeffs, name)
            if name in ("G", "g"):
                assert levels is array  # a leaf field is its one level
            else:
                views_of(levels[name.endswith("_hat"):], array)
    for name in _FIELDS:
        shared = copy.arrays[name] is form.arrays[name]
        assert shared == (name not in ("D", "D_bar", "D_hat", "g"))
        if not shared:
            assert not np.shares_memory(copy.arrays[name], form.arrays[name])


@pytest.mark.parametrize("case", ["other-homogeneous", "other-tree"])
def test_the_memo_serves_only_its_own_coefficients(case):
    rng = np.random.default_rng(3)
    tree = random_tree(rng, 2, 3)
    base = random_linear_coeffs(rng, tree, scale=0.5)
    filled = riccati_backward(tree, base)  # fill the memo the copies share
    if case == "other-homogeneous":
        solve_tree = tree
        coeffs = random_linear_coeffs(rng, tree, scale=0.5)
    else:
        solve_tree = random_tree(rng, 2, 3)
        coeffs = base.with_inhomogeneities(D=0.1)
    mine = solve_linear(solve_tree, coeffs, 1.0)
    assert not np.array_equal(mine.riccati.P_levels[1], filled.P_levels[1])
    assert_same_result(mine, solve_linear(solve_tree, replace_fields(coeffs), 1.0))
