"""`simulate`'s CSV: the same bytes as a row-by-row csv.writer, outcome
text equal to `repr` for every float, and levels that read back through
`load_dataset` as the model's own, or a refusal."""
from __future__ import annotations

import contextlib
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from natfx.cfexpr import Scenario
from natfx.cli import _SIMULATE_CHUNK, _csv_rows, load_dataset, main
from natfx.scm import DiscreteScm, _draw, load_model, save_model
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


def run_simulate(model, seed, directory, n=N, noise_sd=1.0):
    """`simulate` on the model's JSON file, with and without --out: exit code,
    stdout of the run without --out, stderr, and the --out file's bytes or
    None when no file was written."""
    path = os.path.join(directory, "model.json")
    out = os.path.join(directory, "sample.csv")
    save_model(model, path)
    argv = ["simulate", "--model", path, "--n", str(n), "--seed", str(seed),
            "--noise-sd", repr(noise_sd)]
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


@pytest.mark.parametrize(("kind", "n", "noise_sd"), [
    ("seq2", 2 * _SIMULATE_CHUNK + 5, 1.0),  # rows across two chunk boundaries
    ("nonseq2", 3000, 0.0),  # outcomes are cell means: 0.0, -0.25, 0.875, 2.0 ...
    ("single", 3000, 1.0),
    ("single", 2 * _SIMULATE_CHUNK + 5, 0.0),
])
def test_large_and_noiseless_samples_equal_the_row_by_row_writer(kind, n, noise_sd):
    model = level_model(kind, ["a,1", 'b"0', "c"], ["\u00e9\u4e2d", "7", "x\ny"],
                        ["m,hi", "w", "0"])
    want = oracles.sample_csv(simulate_model(model, n, 17, noise_sd=noise_sd))
    with tempfile.TemporaryDirectory() as tmp:
        code, stdout, stderr, written = run_simulate(model, 17, tmp, n, noise_sd)
    assert code == 0, stderr
    assert written == want.encode("utf-8")
    assert stdout == want.rstrip("\n") + "\n"


NEWLINE = np.frombuffer(b"\n".ljust(8, b"\xff"), np.uint64).reshape(1, 1)


def kernel_texts(values):
    """The writer's outcome texts for `values`, and how many went to `repr`."""
    y = np.array(values, dtype=np.float64)
    blob, left = _csv_rows(NEWLINE, np.zeros(len(y), np.intp), y)
    return blob.decode("ascii").split("\n")[1:], left


def around(x):
    return [float(np.nextafter(x, -np.inf)), x, float(np.nextafter(x, np.inf))]


# raw bit patterns of the doubles in [1e-5, 1e16], of either sign
BITS = st.builds(
    lambda b, negative: float(np.int64(b).view(np.float64)) * (-1.0 if negative else 1.0),
    st.integers(int(np.float64(1e-5).view(np.int64)), int(np.float64(1e16).view(np.int64))),
    st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | BITS, min_size=1,
                max_size=40))
@example([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])
@example([float(2.0**k) * sign for k in range(-20, 60) for sign in (1, -1)])
@example([v for k in range(-5, 17) for v in around(float(f"1e{k}"))])
@example([1e-4, float(np.nextafter(1e15, 0)), 1e15, 0.1 + 0.2, 3.0, -3.0, 0.1, 2.5, 1e14 + 0.5])
def test_outcome_text_is_repr(values):
    assert kernel_texts(values)[0] == list(map(repr, values))


def test_outcome_text_is_repr_on_a_sweep():
    rng = np.random.default_rng(5)
    values = np.concatenate([
        rng.integers(0, 2**63, 100_000).view(np.float64),  # any bit pattern
        np.exp(rng.uniform(np.log(1e-5), np.log(1e16), 100_000)) * rng.choice([-1, 1], 100_000),
        np.round(rng.normal(size=50_000) * (scale := 10.0 ** rng.integers(0, 12, 50_000)))
        / scale,  # short decimals
        rng.integers(-10**15, 10**15, 50_000).astype(float),
    ])
    values = values[np.isfinite(values)].tolist()
    assert kernel_texts(values)[0] == list(map(repr, values))


def test_the_kernel_proves_the_simulate_fit_outcomes(tmp_path, monkeypatch):
    # a kernel that left every value to repr would pass the properties above
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    simulate = workloads._simulate_fit_inputs(str(tmp_path), 17, workloads.Size(200_000, 0))
    _, y = _draw(load_model(simulate.commands[0][2]), 200_000, 17, 1.0)
    texts, left = kernel_texts(y)
    assert left <= 200
    assert texts == list(map(repr, y.tolist()))


def not_a_number(text):
    # a column whose cells all read as numbers comes back numeric
    try:
        float(text)
    except ValueError:
        return True
    return False


def read_back(cells):
    """A column's cells as the reader types them: ints if every cell reads
    as one, else floats if every cell reads as one, else the strings."""
    for kind in (int, float):
        try:
            return [kind(c) for c in cells]
        except ValueError:
            pass
    return cells


def merged_pair(levels):
    """The first two levels that some sample would read back as one value,
    or None: a sample may hold any subset of the levels, so the numeric ones
    are typed together, with every NaN one value."""
    numbers = {}
    for level, value in zip(numeric := [lv for lv in levels if not not_a_number(lv)],
                            read_back(numeric)):
        first = numbers.setdefault("nan" if value != value else value, level)
        if first != level:
            return first, level
    return None


ANY_LEVEL = st.text(alphabet='aZ7,"é\t\r\n ', max_size=4).filter(not_a_number)
# spellings of one number, NaN in two cases, and two ints a float cannot tell apart
NUMERIC_LEVEL = st.sampled_from(["0", "00", "1", "01", "+1", "1.0", "1e0", "nan", "NaN", "2",
                                 "9007199254740992", "9007199254740993"])


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    a_levels=level_sets(ANY_LEVEL | NUMERIC_LEVEL),
    m1_levels=level_sets(ANY_LEVEL | NUMERIC_LEVEL),
    m2_levels=level_sets(ANY_LEVEL | NUMERIC_LEVEL),
)
@example(kind="single", a_levels=["a\rb", "c"], m1_levels=["x", "y"], m2_levels=["z"])
@example(kind="single", a_levels=["a", "b"], m1_levels=["", "y"], m2_levels=["z"])
@example(kind="seq2", a_levels=["a", "b"], m1_levels=["y"], m2_levels=["x", " x"])
@example(kind="single", a_levels=["01", "1"], m1_levels=["x", "y"], m2_levels=["z"])
@example(kind="seq2", a_levels=["a"], m1_levels=["1", "1.0"], m2_levels=["z"])
@example(kind="nonseq2", a_levels=["a", "b"], m1_levels=["y"], m2_levels=["1e0", "x", "1"])
@example(kind="seq2", a_levels=["a"], m1_levels=["y"], m2_levels=["nan", "NaN"])
@example(kind="single", a_levels=["9007199254740992", "9007199254740993"], m1_levels=["x", "y"],
         m2_levels=["z"])
def test_sample_reads_back_as_the_model_levels_or_is_refused(kind, a_levels, m1_levels,
                                                             m2_levels):
    model = level_model(kind, a_levels, m1_levels, m2_levels)
    columns = list(zip(["A", "M1", "M2"], [a_levels, m1_levels, m2_levels]))[: model.k + 1]
    refused = []  # per column, a level that would not read back alone, then a merged pair
    for c, levels in columns:
        refused += [f"column {c} level {lv!r}" for lv in levels if lv != lv.strip() or not lv]
        if (pair := merged_pair(levels)):
            refused.append(f"column {c} levels {pair[0]!r} and {pair[1]!r}")
    with tempfile.TemporaryDirectory() as tmp:
        code, stdout, stderr, written = run_simulate(model, 3, tmp)
        if refused:
            assert (code, stdout, written) == (1, "", None)
            assert stderr.startswith("natfx: error: ") and stderr.count("\n") == 1, stderr
            assert refused[0] in stderr
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
        cells = drawn.tolist()
        assert set(cells) <= set(levels), column
        assert list(map(repr, got.tolist())) == list(map(repr, read_back(cells))), column
    assert data.outcome.tolist() == want.outcome.tolist()
