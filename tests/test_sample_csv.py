"""`simulate`'s CSV: the same bytes as a row-by-row csv.writer, and levels
that read back through `load_dataset` as the model's own, or a refusal."""
from __future__ import annotations

import contextlib
import io
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from natfx.cfexpr import Scenario
from natfx.cli import load_dataset, main
from natfx.scm import DiscreteScm, save_model
from natfx.scm import simulate as simulate_model

KINDS = ("single", "seq2", "nonseq2")
N = 40


def level_model(kind, a_levels, m1_levels, m2_levels):
    """A model over the given string levels, skewed probabilities, and cell
    means that differ from cell to cell."""

    def row(levels):
        weights = range(1, len(levels) + 1)
        return {lv: w / sum(weights) for lv, w in zip(levels, weights)}

    pm1 = {a: row(m1_levels) for a in a_levels}
    if kind == "single":
        ymean = {a: {m: i - 0.25 * j for j, m in enumerate(m1_levels)}
                 for i, a in enumerate(a_levels)}
        return DiscreteScm(Scenario.single(), pm1=pm1, ymean=ymean)
    ymean = {a: {m: {w: i - 0.25 * j + 0.125 * k for k, w in enumerate(m2_levels)}
                 for j, m in enumerate(m1_levels)} for i, a in enumerate(a_levels)}
    if kind == "nonseq2":
        return DiscreteScm.nonseq2(pm1, {a: row(m2_levels) for a in a_levels}, ymean)
    pm2 = {a: {m: row(m2_levels) for m in m1_levels} for a in a_levels}
    return DiscreteScm(Scenario.chain(2), pm1=pm1, pm2=pm2, ymean=ymean)


def run_simulate(model, seed, directory):
    """`simulate` on the model's JSON file, with and without --out: exit code,
    stdout of the run without --out, stderr, and the --out file's bytes or
    None when no file was written."""
    path = os.path.join(directory, "model.json")
    out = os.path.join(directory, "sample.csv")
    save_model(model, path)
    argv = ["simulate", "--model", path, "--n", str(N), "--seed", str(seed)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv + ["--out", out]) == code
    written = None
    if os.path.exists(out):
        with open(out, "rb") as fh:
            written = fh.read()
    return code, stdout.getvalue(), stderr.getvalue(), written


def level_sets(text):
    return st.lists(text, min_size=1, max_size=3, unique=True)


# commas, quotes, non-ASCII, digits and inner line feeds; no carriage return,
# which the row-by-row writer leaves unquoted, and no level the writer refuses
WRITABLE = st.text(alphabet='a7,"é中\n ', min_size=1, max_size=4).filter(
    lambda s: s == s.strip()
)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    a_levels=level_sets(WRITABLE),
    m1_levels=level_sets(WRITABLE),
    m2_levels=level_sets(WRITABLE),
    seed=st.sampled_from([1, 13, 17]),
)
def test_bytes_equal_the_row_by_row_writer(kind, a_levels, m1_levels, m2_levels, seed):
    model = level_model(kind, a_levels, m1_levels, m2_levels)
    want = oracles.sample_csv(simulate_model(model, N, seed))
    with tempfile.TemporaryDirectory() as tmp:
        code, stdout, stderr, written = run_simulate(model, seed, tmp)
    assert code == 0, stderr
    assert written == want.encode("utf-8")
    assert stdout == want.rstrip("\n") + "\n"


def not_a_number(text):
    # a column whose cells all read as numbers comes back numeric
    try:
        float(text)
    except ValueError:
        return True
    return False


ANY_LEVEL = st.text(alphabet='aZ7,"é\t\r\n ', max_size=4).filter(not_a_number)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    a_levels=level_sets(ANY_LEVEL),
    m1_levels=level_sets(ANY_LEVEL),
    m2_levels=level_sets(ANY_LEVEL),
)
@example(kind="single", a_levels=["a\rb", "c"], m1_levels=["x", "y"], m2_levels=["z"])
@example(kind="single", a_levels=["a", "b"], m1_levels=["", "y"], m2_levels=["z"])
@example(kind="seq2", a_levels=["a", "b"], m1_levels=["y"], m2_levels=["x", " x"])
def test_sample_reads_back_as_the_model_levels_or_is_refused(kind, a_levels, m1_levels,
                                                             m2_levels):
    model = level_model(kind, a_levels, m1_levels, m2_levels)
    columns = list(zip(["A", "M1", "M2"], [a_levels, m1_levels, m2_levels]))[: model.k + 1]
    refused = [(c, lv) for c, levels in columns for lv in levels if lv != lv.strip() or not lv]
    with tempfile.TemporaryDirectory() as tmp:
        code, stdout, stderr, written = run_simulate(model, 3, tmp)
        if refused:
            column, level = refused[0]
            assert (code, stdout, written) == (1, "", None)
            assert stderr.startswith("natfx: error: ") and stderr.count("\n") == 1, stderr
            assert f"column {column} level {level!r}" in stderr
            return
        assert code == 0, stderr
        roles = {"exposure": "A", "m1": "M1", "outcome": "Y"}
        if model.k == 2:
            roles["m2"] = "M2"
        data = load_dataset(os.path.join(tmp, "sample.csv"), roles)
    want = simulate_model(model, N, 3)
    assert data.n_dropped == 0
    for (column, levels), got, drawn in zip(columns, (data.exposure, data.m1, data.m2),
                                            (want.exposure, want.m1, want.m2)):
        assert set(got.tolist()) <= set(levels), column
        assert got.tolist() == drawn.tolist(), column
    assert data.outcome.tolist() == want.outcome.tolist()
