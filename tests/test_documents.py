"""Differential tests over whole problem documents, run through the command
line in process: drawn files, not coefficient objects, so the schema, the
binding, the solvers and the report all take part."""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from fbsde import bind_problem, verify_report
from fbsde.cli import run_cli

#: Interior generators of a bsde file: absent, row-free, or reading z1.
F_FORMS = (None, "{a}*y - {b}*w + t/7", "{a}*y + {b}*z1 + 0.01*w")

coefficient = st.floats(0.0, 0.5).map(lambda v: round(v, 4))


@st.composite
def bsde_documents(draw):
    """A bsde document on N in {2, 3}, T in 1..4, uniform or one drawn
    transition row, with f absent, row-free or reading z1 and f_terminal
    present or absent; a file that reads z1 without f_terminal, which the
    binding must refuse, is not drawn."""
    N, T = draw(st.integers(2, 3)), draw(st.integers(1, 4))
    weights = draw(st.one_of(st.none(), st.lists(st.integers(1, 5), min_size=N, max_size=N)))
    transition = "uniform" if weights is None else [w / sum(weights) for w in weights]
    f_form = draw(st.sampled_from(F_FORMS))
    with_terminal = draw(st.booleans()) or (f_form is not None and "z1" in f_form)
    coefficients = {}
    if f_form is not None:
        coefficients["f"] = f_form.format(a=draw(coefficient), b=draw(coefficient))
    if with_terminal:
        coefficients["f_terminal"] = f"{draw(coefficient)}*y + w/5"
    terminal = draw(st.lists(st.floats(-2.0, 2.0), min_size=N**T, max_size=N**T))
    return {"kind": "bsde", "tree": {"N": N, "T": T, "transition": transition},
            "terminal": terminal, "coefficients": coefficients}


@settings(max_examples=40, deadline=None)
@given(bsde_documents())
def test_a_bsde_document_solves_and_its_report_verifies(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "bsde.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    outputs = []
    for _ in range(2):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(["solve", str(path)])
        assert (code, err.getvalue()) == (0, "")
        outputs.append(out.getvalue())
    # the report is rendered twice from the same file: the same bytes
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0])
    assert report["status"] == "solved"
    again = verify_report(bind_problem(doc), report)
    assert again["backward"] == report["residuals"]["backward"]
