"""The level-array certificate against the per-node verdicts it stands for."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_linear_coeffs, random_tree
from fbsde import (
    GammaVerdict,
    LinearCoefficients,
    ScenarioTree,
    riccati_backward,
    special_coefficients,
)
from fbsde.io import certificate_payload
from fbsde.linear import _FIELDS, SINGULAR_RATIO


def per_node_verdicts(tree, ric):
    """One GammaVerdict per node reached, built node by node from the
    matrices: level by level from T-1 down, ending with the first level
    that holds a singular matrix."""
    verdicts = []
    for t in range(tree.T - 1, -1, -1):
        svals = np.linalg.svd(ric.gamma_levels[t], compute_uv=False)
        smax, smin = svals[:, 0], svals[:, -1]
        ratios = np.where(smax > 0.0, smin / np.where(smax > 0.0, smax, 1.0), 0.0)
        ok = (smax > 0.0) & (ratios > SINGULAR_RATIO)
        for idx in range(tree.num_nodes(t)):
            verdicts.append(GammaVerdict(tree.node_id(t, idx), float(ratios[idx]), bool(ok[idx])))
        if not ok.all():
            break
    return tuple(verdicts)


def with_singular_node(rng, tree, depth, index):
    """Random coefficients with the ``singular-gamma`` mechanism at node
    (depth, index): below ``depth`` nothing couples and G = 1, so every
    slope P there is 1, and that node feeds Y back into its drift alone
    (B = 1, no Z loading), so its matrix annihilates the all-ones vector."""
    base = random_linear_coeffs(rng, tree, scale=0.5)
    fields = {}
    for name in _FIELDS:
        levels = getattr(base, name)
        if name in ("G", "g"):
            fields[name] = levels.copy()
        else:
            fields[name] = [lev.copy() for lev in (levels[1:] if name.endswith("_hat") else levels)]
    for t in range(depth + 1, tree.T):
        for name in ("A", "B", "C", "A_bar", "B_bar", "C_bar"):
            fields[name][t][...] = 0.0
    for t in range(depth + 1, tree.T + 1):
        for name in ("A_hat", "B_hat", "C_hat"):
            fields[name][t - 1][...] = 0.0
    fields["G"][...] = 1.0
    fields["B"][depth][index] = 1.0
    for name in ("C", "B_bar", "C_bar"):
        fields[name][depth][index] = 0.0
    return LinearCoefficients(tree, **fields)


instances = st.tuples(
    st.integers(0, 2**32 - 1),  # seed
    st.integers(2, 3),  # N
    st.integers(1, 4),  # T
    st.integers(0, 2**16),  # depth and index of the singular node, reduced
    st.booleans(),  # put a singular node in?
)


@settings(max_examples=80, deadline=None)
@given(instances)
def test_level_certificate_equals_the_per_node_one(instance):
    seed, N, T, pick, singular = instance
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, N, T)
    if singular:
        depth = pick % T  # the root included
        index = (pick // T) % tree.num_nodes(depth)
        coeffs = with_singular_node(rng, tree, depth, index)
    else:
        coeffs = random_linear_coeffs(rng, tree)
    ric = riccati_backward(coeffs)
    cert = ric.certificate
    ref = per_node_verdicts(tree, ric)

    assert cert.verdicts == ref
    assert cert.singular_nodes == tuple(v.node for v in ref if not v.invertible)
    assert cert.all_invertible is all(v.invertible for v in ref)
    assert cert.min_ratio == min(v.ratio for v in ref)
    assert not any(lev.flags.writeable for lev in (*cert.ratios, *cert.ok))
    if singular:
        assert tree.node_id(depth, index) in cert.singular_nodes
        assert len(cert.ok) == T - depth  # halted at the singular level

    # weakest[k]: level k's verdict with the smallest ratio, first on a tie
    start = 0
    for k, t in enumerate(range(T - 1, T - 1 - len(cert.ok), -1)):
        level = ref[start:start + tree.num_nodes(t)]
        start += len(level)
        assert cert.weakest[k] == min(level, key=lambda v: v.ratio)
    assert start == len(ref)


class CountingNodeIds:
    """Counts ScenarioTree.node_id calls while patched in."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = ScenarioTree.node_id

        def counted(tree, t, index):
            self.calls += 1
            return original(tree, t, index)

        monkeypatch.setattr(ScenarioTree, "node_id", counted)


def test_backward_pass_builds_a_node_id_per_level_and_singular_node(monkeypatch):
    T = 10
    rng = np.random.default_rng(3)
    tree = random_tree(rng, 2, T)
    cases = [special_coefficients(tree), with_singular_node(rng, tree, 4, 5),
             LinearCoefficients(tree, B=[0.0] * (T - 1) + [1.0], G=1.0)]
    for coeffs in cases:
        counter = CountingNodeIds(monkeypatch)
        ric = riccati_backward(coeffs)
        payload = certificate_payload(ric)  # what solve and check report
        singular = len(payload["singular_nodes"])
        assert counter.calls <= T + singular
        monkeypatch.undo()
    assert singular == tree.num_nodes(T - 1)  # the last case: a whole level
