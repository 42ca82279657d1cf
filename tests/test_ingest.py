"""`load_dataset` against its csv-module reader on generated CSV files.

`load_dataset` reads plain numeric text with `np.loadtxt` and sends every
other text to `_csv_columns`, the csv-module reader.  With the loadtxt
reader switched off, `load_dataset` is that csv reader alone, so the two
runs must give equal columns (value, dtype and every bit of a float),
equal `n_dropped`, or the same error with the same message.

The generated files mix ints, floats and strings; blank, padded and quoted
cells; ``nan``, ``inf`` and ``Infinity``; ``1_000``, ``+3`` and non-ASCII
digits; integers beyond int64; trailing commas and ragged rows; fields over
the csv field size limit; blank and whitespace-only lines; CRLF line ends
and undecodable bytes.
"""
from __future__ import annotations

import csv
import json
import warnings
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import natfx.cli
from natfx.cli import load_dataset

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
# a column draws its cells from one of these
COLUMN_KINDS = [ints, floats, st.one_of(ints, floats), st.one_of(ints, big_ints),
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
    the files are plain numeric text, to reach the loadtxt reader; the rest
    may hold anything listed in the module docstring."""
    messy = draw(st.booleans())
    width = draw(st.integers(1, 5))
    header = [f"c{j}" for j in range(width)]
    kinds = [draw(st.sampled_from(COLUMN_KINDS if messy else COLUMN_KINDS[:4]))
             for _ in range(width)]
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 8))):
        # a plain file may hold a ragged row, which `np.loadtxt` would read
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
def test_loadtxt_reader_matches_the_csv_reader(tmp_path_factory, case):
    blob, roles, limit = case
    path = tmp_path_factory.mktemp("ingest") / "data.csv"
    path.write_bytes(blob)
    old_limit = csv.field_size_limit(limit)
    try:
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            got = outcome(str(path), roles)
        with mock.patch.object(natfx.cli, "_loadtxt_columns", lambda path, names: None):
            want = outcome(str(path), roles)
    finally:
        csv.field_size_limit(old_limit)
    assert got == want, json.dumps(roles)
    assert not seen, [str(w.message) for w in seen]
