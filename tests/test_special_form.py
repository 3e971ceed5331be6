"""The special form factored once: reused slopes give the one-shot solve bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_linear_coeffs, random_tree, uniform_tree
from fbsde import (
    ContinuationOptions,
    LinearCoefficients,
    NonFiniteInput,
    SlopeMismatch,
    SpecialForm,
    demo_monotone_problem,
    linear,
    solve_continuation,
    solve_linear,
    solve_special,
    special_coefficients,
)

instances = st.tuples(
    st.integers(0, 2**32 - 1),  # seed
    st.integers(2, 3),  # N
    st.integers(1, 3),  # T
    st.floats(-2.0, 2.0),  # x0
)


def inhomogeneities(rng, tree):
    """(D, D_bar, D_hat, g) of a conftest coefficient set; D_hat by absolute time."""
    c = random_linear_coeffs(rng, tree)
    return c.D, c.D_bar, c.D_hat, c.g


def assert_levels_identical(mine, theirs):
    assert len(mine) == len(theirs)
    for a, b in zip(mine, theirs):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.shape == b.shape and np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(instances)
def test_factored_solve_equals_the_one_shot_solve(instance):
    seed, N, T, x0 = instance
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, N, T)
    form = SpecialForm(tree)
    # two draws through one form: nothing of a solve may leak into the next
    for _ in range(2):
        D, D_bar, D_hat, g = inhomogeneities(rng, tree)
        mine = solve_special(tree, D, D_bar, D_hat, g, x0, form=form)
        ref = solve_linear(tree, special_coefficients(tree, D, D_bar, D_hat, g), x0)
        for t in range(T + 1):
            assert np.array_equal(mine.X.level(t), ref.X.level(t))
            assert np.array_equal(mine.Y.level(t), ref.Y.level(t))
        for t in range(T):
            assert np.array_equal(mine.Z.level(t), ref.Z.level(t))
        assert mine.residuals == ref.residuals
        assert_levels_identical(mine.riccati.P_levels, ref.riccati.P_levels)
        assert_levels_identical(mine.riccati.p_levels, ref.riccati.p_levels)
        assert_levels_identical(mine.riccati.gamma_levels, ref.riccati.gamma_levels)
        assert mine.riccati.certificate.verdicts == ref.riccati.certificate.verdicts


@pytest.mark.parametrize(
    "T, scale, opts, halvings",
    [(3, 0.1, ContinuationOptions(), 0),
     (2, 0.6, ContinuationOptions(delta=1.0, max_iterations=10), 2)],
)
def test_one_backward_pass_per_ladder_attempt(monkeypatch, T, scale, opts, halvings):
    calls = {"riccati": 0, "validate": 0, "special": 0}

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    monkeypatch.setattr(linear, "riccati_backward", counting("riccati", linear.riccati_backward))
    monkeypatch.setattr(linear.LinearCoefficients, "validate",
                        counting("validate", linear.LinearCoefficients.validate))
    monkeypatch.setattr(linear, "solve_special", counting("special", linear.solve_special))
    tree = uniform_tree(2, T)
    sol, stats = solve_continuation(tree, demo_monotone_problem(tree, scale), 1.0, opts)
    assert max(sol.residuals.forward, sol.residuals.backward) <= opts.tolerance
    assert stats.halvings == halvings
    assert calls["riccati"] == calls["validate"] == 1 + halvings
    # the stats count the inner solves of every attempt
    assert calls["special"] == stats.inner_solves > 1


@pytest.mark.parametrize("field", ["D", "D_bar", "D_hat", "g"])
def test_a_nan_inhomogeneity_is_refused(field):
    rng = np.random.default_rng(5)
    tree = random_tree(rng, 2, 3)
    form = SpecialForm(tree)
    values = dict(zip(("D", "D_bar", "D_hat", "g"), inhomogeneities(rng, tree)))
    bad = values[field][-1] if isinstance(values[field], list) else values[field]
    bad.flat[0] = np.nan
    with pytest.raises(NonFiniteInput, match=f"coefficient {field} "):
        solve_special(tree, **values, x0=0.5, form=form)


def foreign_coefficients(tree, form):
    """Coefficients the form's slopes must not serve, by name."""
    rebuilt_list = form.coefficients(D=0.1)
    rebuilt_list.C_bar = [lev.copy() for lev in rebuilt_list.C_bar]
    return {
        # equal values, but not the factored arrays
        "rebuilt": special_coefficients(tree, D=0.1),
        "other-homogeneous": LinearCoefficients(tree, B=-0.5, A_hat=-1.0, G=1.0, D=0.1),
        "one-field-copied": rebuilt_list,
    }


@pytest.mark.parametrize("name", ["rebuilt", "other-homogeneous", "one-field-copied"])
def test_foreign_coefficients_are_refused(name):
    tree = uniform_tree(2, 3)
    form = SpecialForm(tree)
    coeffs = foreign_coefficients(tree, form)[name]
    with pytest.raises(SlopeMismatch):
        solve_linear(tree, coeffs, 1.0, slopes=form.riccati)


def test_other_trees_and_bare_certificates_are_refused():
    tree = uniform_tree(2, 3)
    form = SpecialForm(tree)
    with pytest.raises(SlopeMismatch):
        solve_special(uniform_tree(2, 3), D=0.1, x0=1.0, form=form)
    bare = linear.RiccatiData(*(getattr(form.riccati, f) for f in
                                ("P_levels", "p_levels", "gamma_levels", "certificate")))
    with pytest.raises(SlopeMismatch):
        solve_linear(tree, form.coefficients(D=0.1), 1.0, slopes=bare)


def test_factored_levels_are_read_only():
    tree = uniform_tree(2, 2)
    form = SpecialForm(tree)
    coeffs = form.coefficients(D=0.1)
    with pytest.raises(ValueError, match="read-only"):
        coeffs.B[0][:] = 0.5
    coeffs.D[0][:] = 0.2  # the inhomogeneities are the caller's own
    assert not np.shares_memory(coeffs.D[0], form.coeffs.D[0])
