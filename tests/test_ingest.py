"""`load_dataset` against its csv-module reader on generated CSV files, and
the plain reader's floats against `float`.

`load_dataset` reads plain numeric text with a numpy kernel
(`_plain_columns`) and sends every other text to `_csv_columns`, the
csv-module reader.  With the kernel switched off, `load_dataset` is that
csv reader alone, so the two runs must give equal columns (value, dtype
and every bit of a float), equal `n_dropped`, or the same error with the
same message.

The generated files mix ints, floats and strings; blank, padded and quoted
cells; ``nan``, ``inf`` and ``Infinity``; ``1_000``, ``+3`` and non-ASCII
digits; integers beyond int64; trailing commas and ragged rows; fields over
the csv field size limit; blank and whitespace-only lines; CRLF line ends
and undecodable bytes.  Plain files also hold the kernel's hard cells:
exponents, 16 to 25 digits, halfway decimals, signs, bare points and
leading zeros.
"""
from __future__ import annotations

import contextlib
import csv
import importlib.util
import io
import json
import struct
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import natfx.cli
from natfx.cli import _plain_columns, load_dataset, main
from natfx.scm import save_model, simulate

SPECIAL = ["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "-Infinity", "+3", "-0", "1e5",
           ".5", "5.", "1_000", "1_0.5", "٣", "１", "١.٥", "0x10", "1e",
           "9223372036854775807", "9223372036854775808", "-9223372036854775809",
           "18446744073709551616", "never", "current", "x y", '"3"', '"a,b"', '1"', "",
           " ", "\t", "\xa0", "\x00"]
# numpy reads "\u196e" as the integer 6462
PADDING = ["", " ", "  ", "\t", "\xa0", "\u3000", "\x1c", "\u200b", "\u196e"]

ints = st.integers(-(10**6), 10**6).map(str)
big_ints = st.integers(2**63 - 2, 2**64 + 2).flatmap(lambda v: st.sampled_from([str(v), str(-v)]))
floats = st.floats(allow_nan=True, allow_infinity=True).map(repr)
specials = st.sampled_from(SPECIAL)
# cells past the kernel's fast paths: exponents, 16-18 and 19 or more digits,
# halfway cases that round to even (2^53 + 1, also with a point, 2^54 + 2 and
# 2^52 + 0.5), a value nearer 1 - 2^-53 than 1, signs, bare points and
# leading zeros
HARD = ["1.5e-05", "2E+3", "1.23e-05", "-7e+300", "1234567890123456", "12345678901234567",
        "123456789012345678", "0.12345678901234567", "1.2345678901234567891",
        "1234567890.1234567891", "9007199254740993", "18014398509481986",
        "9007199254740992.5", "4503599627370496.5", "9007199254740993.0",
        "0.036326983788396494", "1.0000000000000001", "0.99999999999999999",
        "0.99999999999999992", "-0.0", "-0", "+3", "+0.25", ".5", "-.5", "5.", "0007",
        "-0003.50", "00.000125", "5e-324"]


@st.composite
def decimal_texts(draw, max_digits=25):
    """[+-]?digits with a point anywhere among 1 to `max_digits` digits."""
    digits = draw(st.text("0123456789", min_size=1, max_size=max_digits))
    at = draw(st.integers(0, len(digits)))
    return draw(st.sampled_from(["", "-", "+"])) + digits[:at] + "." + digits[at:]


def double_texts():
    return st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
        .filter(lambda x: x == x and abs(x) != float("inf")),
    ).map(repr)


hard = st.one_of(st.sampled_from(HARD), decimal_texts(), double_texts())
# a column draws its cells from one of these; the first five make plain files
COLUMN_KINDS = [ints, floats, st.one_of(ints, floats), st.one_of(ints, big_ints), hard,
                st.sampled_from(["never", "current", "former"]),
                st.one_of(ints, floats, big_ints, specials)]


@st.composite
def cells(draw, kind):
    cell = draw(kind)
    if draw(st.integers(0, 9)) == 0:
        cell = draw(st.sampled_from(PADDING)) + cell + draw(st.sampled_from(PADDING))
    return cell


@st.composite
def csv_files(draw):
    """A CSV file as bytes, role bindings and a csv field size limit.  Half
    the files are plain numeric text, to reach the numpy kernel; the rest
    may hold anything listed in the module docstring."""
    messy = draw(st.booleans())
    width = draw(st.integers(1, 5))
    header = [f"c{j}" for j in range(width)]
    kinds = [draw(st.sampled_from(COLUMN_KINDS if messy else COLUMN_KINDS[:5]))
             for _ in range(width)]
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 8))):
        # a plain file may hold a ragged row, which the kernel must refuse
        shape = draw(st.integers(0, 19)) if messy else draw(st.sampled_from([0, 2, 3] + [4] * 17))
        if shape == 0:
            lines.append("")
        elif shape == 1:
            lines.append(draw(st.sampled_from(PADDING[1:])))
        else:
            row = [draw(cells(kind)) for kind in kinds]
            if shape == 2:
                row.append("")  # a trailing comma
            elif shape == 3:
                row = row[:-1] if len(row) > 1 else row + ["1"]
            lines.append(",".join(row))
    newline = "\r\n" if messy and draw(st.booleans()) else "\n"
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    blob = text.encode("utf-8")
    if messy and draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(blob)))
        blob = blob[:at] + b"\xff" + blob[at:]
    names = header + ["absent"] if messy and draw(st.integers(0, 9)) == 0 else header
    roles = {role: draw(st.sampled_from(names)) for role in ("exposure", "m1", "outcome")}
    if draw(st.booleans()):
        roles["m2"] = draw(st.sampled_from(names))
    roles["covariates"] = draw(st.lists(st.sampled_from(header), max_size=2, unique=True))
    # under the small limit most lines of a file are over it
    limit = draw(st.sampled_from([csv.field_size_limit(), 6])) if messy else csv.field_size_limit()
    return blob, roles, limit


def outcome(path, roles):
    """A loaded dataset as comparable plain values, or the error raised."""
    try:
        data = load_dataset(path, roles)
    except Exception as err:  # noqa: BLE001 - the error itself is compared
        return ("error", type(err).__name__, str(err))
    columns = {"exposure": data.exposure, "m1": data.m1, "m2": data.m2, "outcome": data.outcome}
    columns.update({f"covariate {k}": v for k, v in data.covariates.items()})
    return ("dataset", data.n_dropped, {
        role: None if column is None else (
            column.dtype.str,
            column.tolist() if column.dtype == object else column.tobytes(),
            column.flags.c_contiguous,
        )
        for role, column in columns.items()
    })


@settings(max_examples=500, deadline=None)
@given(csv_files())
def test_plain_reader_matches_the_csv_reader(tmp_path_factory, case):
    blob, roles, limit = case
    path = tmp_path_factory.mktemp("ingest") / "data.csv"
    path.write_bytes(blob)
    old_limit = csv.field_size_limit(limit)
    try:
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            got = outcome(str(path), roles)
        with mock.patch.object(natfx.cli, "_plain_columns", lambda path, names: None):
            want = outcome(str(path), roles)
    finally:
        csv.field_size_limit(old_limit)
    assert got == want, json.dumps(roles)
    assert not seen, [str(w.message) for w in seen]


def read_both(path, roles):
    """`load_dataset` through the kernel and through the csv reader alone."""
    got = outcome(str(path), roles)
    with mock.patch.object(natfx.cli, "_plain_columns", lambda path, names: None):
        return got, outcome(str(path), roles)


@st.composite
def blank_line_files(draw):
    """A plain file with runs of 1 to 3 empty lines after the header, between
    rows and at the end, and a block size of a few lines, so that the runs
    fall on both sides of block edges; or the real block size."""
    kinds = [draw(st.sampled_from([ints, double_texts(), decimal_texts(), st.one_of(ints, double_texts())]))
             for _ in range(draw(st.integers(1, 4)))]
    rows = [",".join(draw(kind) for kind in kinds) for _ in range(draw(st.integers(1, 30)))]
    runs = draw(st.lists(st.sampled_from([0, 0, 1, 2, 3]), min_size=len(rows) + 1, max_size=len(rows) + 1)
                .filter(any))
    lines = [",".join(f"c{j}" for j in range(len(kinds)))]
    for row, run in zip([None, *rows], runs):
        lines += ([row] if row is not None else []) + [""] * run
    final = "\n" if runs[-1] or draw(st.booleans()) else ""
    return "\n".join(lines) + final, len(rows), draw(st.sampled_from([1, 2, 3, natfx.cli._READ_BLOCK]))


@settings(max_examples=300, deadline=None)
@given(blank_line_files())
def test_plain_reader_reads_files_with_empty_lines(tmp_path_factory, case):
    text, n, block = case
    path = tmp_path_factory.mktemp("blank") / "data.csv"
    path.write_text(text)
    names = text.partition("\n")[0].split(",")
    roles = {"exposure": names[0], "m1": names[-1], "outcome": names[-1], "covariates": names[1:-1]}
    with mock.patch.object(natfx.cli, "_READ_BLOCK", block):
        columns = _plain_columns(str(path), names)
        assert columns is not None
        assert all(len(column) == n for column in columns.values())
        got, want = read_both(path, roles)
    assert got == want


@pytest.mark.parametrize("case", ["float in a later block", "-0 in a later block", "ragged last row"])
def test_plain_reader_matches_the_csv_reader_past_one_block(tmp_path, case):
    # about 8,192 lines a block: 20,000 rows are three blocks
    rng = np.random.default_rng(7)
    rows = [[str(a), str(m), repr(y)] for a, m, y in
            zip(rng.integers(0, 2, 20_000).tolist(), rng.integers(-9, 99, 20_000).tolist(),
                rng.normal(size=20_000).tolist())]
    if case == "float in a later block":
        rows[15_000][1] = "2.5"  # the int column turns float
    elif case == "-0 in a later block":
        rows[15_000][1] = "-0"  # 0 as an int, -0.0 once the column is float
    else:
        rows[-3] = rows[-3][:2]
    path = tmp_path / "d.csv"
    path.write_text("A,M,Y\n" + "".join(",".join(row) + "\n" for row in rows))
    assert len(rows) > 2 * natfx.cli._READ_BLOCK
    columns = _plain_columns(str(path), ["A", "M", "Y"])
    if case == "float in a later block":
        assert columns["M"].dtype == np.float64 and columns["M"][15_000] == 2.5
    else:
        assert columns is None  # the kernel refuses; the csv reader reads or raises
    got, want = read_both(path, {"exposure": "A", "m1": "M", "outcome": "Y"})
    assert got == want


def plain_floats(path, texts):
    """The kernel's float column of `texts`, and the texts it left to `float`."""
    path.write_text("Y,Z\n" + "".join(f"{t},1\n" for t in ["0.5", *texts]))
    left = []

    def spy(text):
        left.append(text)
        return float(text)

    with mock.patch.object(natfx.cli, "float", spy, create=True):
        got = _plain_columns(str(path), ["Y"])
    assert got is not None
    assert got["Y"].dtype == np.float64
    return got["Y"][1:], left


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(double_texts(), decimal_texts()), min_size=1, max_size=60))
def test_kernel_floats_are_float_of_the_text(tmp_path_factory, texts):
    got, _ = plain_floats(tmp_path_factory.mktemp("floats") / "y.csv", texts)
    want = np.array([float(t) for t in texts])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_hard_cells_are_float_of_the_text(tmp_path):
    got, left = plain_floats(tmp_path / "y.csv", HARD)
    assert got.view(np.int64).tolist() == np.array(list(map(float, HARD))).view(np.int64).tolist()
    # ties, exponents, 20 or more digits and bare points go to float; the rest is proved
    assert {b"9007199254740993", b"1.5e-05", b".5", b"5.", b"1.2345678901234567891"} <= set(left)
    assert not {b"1234567890123456", b"0.036326983788396494", b"-0.0", b"+3"} & set(left)


def test_one_exponent_cell_keeps_a_plain_file_on_the_kernel(tmp_path):
    # the linear benchmark's CSVs hold one or two such cells at seeds 13, 17 and 29
    rng = np.random.default_rng(3)
    cells = [repr(v) for v in rng.normal(size=2000).tolist()]
    cells[700] = "1.23e-05"
    path = tmp_path / "d.csv"
    path.write_text("A,Y\n" + "".join(f"{i % 2},{c}\n" for i, c in enumerate(cells)))
    got = _plain_columns(str(path), ["A", "Y"])
    assert got is not None
    assert got["Y"].tolist() == [float(c) for c in cells]
    assert got["A"].dtype == np.int64


def test_kernel_proves_the_simulate_fit_outcomes(tmp_path, monkeypatch):
    # a kernel that left every cell to float would pass the properties above
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    simulate = workloads._simulate_fit_inputs(str(tmp_path), 17, workloads.Size(200_000, 0))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(simulate.commands[0]) == 0
    sample = simulate.files[0]
    left = []
    with mock.patch.object(natfx.cli, "float", lambda t: left.append(t) or float(t), create=True):
        got = _plain_columns(sample, ["A", "M1", "M2", "Y"])
    assert sum(isinstance(text, bytes) for text in left) <= 200  # 99.9% proved
    with open(sample, encoding="ascii") as fh:
        texts = [line.rsplit(",", 1)[1] for line in fh.read().split()[1:]]
    assert got["Y"].tolist() == list(map(float, texts))


@pytest.mark.parametrize("n", [7, 20_000])
@pytest.mark.parametrize("plain", [True, False], ids=["plain reader", "csv reader"])
def test_simulate_outcomes_read_back_bit_for_bit(tmp_path, dm1, n, plain):
    # the CSV writer's shortest digits and either reader round-trip every double
    model, sample = str(tmp_path / "model.json"), str(tmp_path / "sample.csv")
    save_model(dm1, model)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--model", model, "--n", str(n), "--seed", "5", "--out", sample]) == 0
    roles = {"exposure": "A", "m1": "M1", "m2": "M2", "outcome": "Y"}
    assert _plain_columns(sample, list(roles.values())) is not None  # the kernel takes the file
    with mock.patch.object(natfx.cli, "_plain_columns", _plain_columns if plain else lambda path, names: None):
        got = load_dataset(sample, roles)
    want = simulate(dm1, n, seed=5)
    assert got.n == n and got.n_dropped == 0
    assert got.outcome.view(np.int64).tolist() == want.outcome.view(np.int64).tolist()
