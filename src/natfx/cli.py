"""Command-line front end: CSV ingestion, subcommand routing, reports.

Exit codes partition three ways: 0 on success, 2 when a formula is
rejected as non-identifiable, 1 for every other failure (bad arguments,
unreadable files, estimation errors).  JSON output carries 12 significant
digits; the text tables print 4, taken from the same rounded values, so
the two renderings never disagree in a printed digit.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import os
import sys
import threading
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .cfexpr import Scenario, check_identifiability, format_cf, parse_cf
from .decomp import (
    DecompositionResult,
    EvaluationOfProblematicSpec,
    Query,
    decompose,
)
from .estimate import (
    AssumptionLedger,
    CovariateProfile,
    LinearParams,
    fit_linear_system,
    linear_components,
)
from .infer import BootstrapConfig, LinearEstimator, PluginEstimator, bootstrap
# from_dataset stays bound here: perfbench's tracer and selftest look it up on this module
from .scm import Dataset, NotIdentifiable, eval_expectation, from_dataset, load_model  # noqa: F401
from .scm import _draw

__all__ = [
    "Report",
    "build_parser",
    "load_dataset",
    "load_roles",
    "main",
    "run",
]

_ROLE_KEYS = ("exposure", "m1", "m2", "outcome")
_SIMULATE_CHUNK = 1 << 14
_READ_BLOCK = 1 << 13  # lines in a block of `_plain_columns`, on average
_DIGIT_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint16)


# ---------------------------------------------------------------------------
# value formatting


def _round12(x: float) -> float:
    return float(f"{float(x):.12g}")


def _round_floats(value: Any) -> Any:
    if isinstance(value, bool):
        return value
    if isinstance(value, (float, np.floating)):
        return _round12(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, Mapping):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v) for v in value]
    return value


def _fmt4(x: float) -> str:
    # table digits are a prefix of the JSON digits by construction
    return f"{_round12(x):.4g}"


def _dekker(x: np.ndarray, ten: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * ten as hi + lo exactly (Dekker's product of Veltkamp's halves)."""
    (xh, th), hi = [(c := 134217729.0 * v) - (c - v) for v in (x, ten)], x * ten
    return hi, ((xh * th - hi) + xh * (ten - th) + (x - xh) * th) + (x - xh) * (ten - th)


def _csv_rows(prefixes: np.ndarray, cell: np.ndarray, y: np.ndarray) -> tuple[bytes, int]:
    """Each row's ``prefixes[cell]`` words and ``repr(y)``, as bytes with the
    pad byte 0xFF dropped, and how many values were left to `repr` itself.

    For finite |y| = x in [1e-4, 1e15), not a power of two, of decimal
    exponent e, `repr`'s digits are ``D = round(x * 10^s)``, s = p - 1 - e,
    for the least p of 15, 16, 17 whose D reads back as x, that is
    ``|D - x * 10^s| < ulp(x) / 2 * 10^s``: the nearest p-digit decimal reads
    back if any does, and no two of at most 15 digits read as one double.
    x * 10^s is an exact Dekker product.  A rounding or test is trusted only
    1e-9 clear of its threshold, its error being below 1e-14; the rest go to
    `repr`.
    """
    tens = np.array([float(f"1e{k}") for k in range(-4, 23)])  # each >= its exact power
    bits = y.view(np.int64) & (2**63 - 1)
    x = bits.view(np.float64)
    todo = (x >= tens[0]) & (x < tens[19]) & (bits & (2**52 - 1) != 0)
    x = np.where(todo, x, 1.5)
    exp = x.view(np.int64) >> 52
    e = (exp - 1023) * 78913 >> 18  # floor(log10(2) * binary exponent): e or e - 1
    e += x >= tens.take(e + 5)
    half_ulp = ((exp - 53) << 52).view(np.float64)

    def scaled(s):  # x * 10^s as floor(hi) + f, f within 2e-15
        hi, lo = _dekker(x, ten := tens.take(s + 4))
        base = np.floor(hi)
        return base, (hi - base) + lo, ten

    p = np.zeros(len(y), np.int64)
    for digits in (15, 16, 17):
        _, f, ten = scaled(digits - 1 - e)
        near, bound = np.abs(f - np.floor(f + 0.5)), half_ulp * ten
        p += digits * (todo & (near < np.minimum(bound, 0.5) - 1e-9))
        todo &= near > bound + 1e-9
    left = np.flatnonzero(p == 0)
    p[left] = 17
    base, f, _ = scaled(s := p - 1 - e)
    d = base.astype(np.int64) + np.floor(f + 0.5).astype(np.int64)
    whole = np.maximum(e + (d >= 10**p), 0) + 1
    d, s = d * (1 + 9 * (s == 0)), np.maximum(s, 1)
    while (z := (p == 15) & (s > 1) & (d % 10 == 0)).any():  # trailing fraction zeros
        d, s = np.where(z, d // 10, d), s - z
    unit = 10 ** np.minimum(s, 18)  # d < 10^18
    d += 9 * (d // unit) * unit  # a 0 between the integer and fraction digits
    g = np.empty((len(y), 12), np.uint16)  # d's 24 digits, zero-padded
    for i in range(11, -1, -1):
        g[:, i], d = _DIGIT_PAIRS.take(d - d // 100 * 100), d // 100
    text, negative = g.view(np.uint8), np.flatnonzero(y < 0)
    text[np.arange(len(y)), 23 - s] = ord(".")
    text[negative, 22 - s[negative] - whole[negative]] = ord("-")
    size = whole + 1 + s + (y < 0)
    if left.size:
        spelled = b"".join(repr(v).encode().rjust(24, b"\xff") for v in y[left].tolist())
        text[left], size[left] = np.frombuffer(spelled, np.uint8).reshape(-1, 24), 24
    pads = (np.arange(24) < 24 - np.arange(25)[:, None]).astype(np.uint8) * 255
    w = prefixes.shape[1]
    out = np.empty((len(y), w + 3), np.uint64)
    out[:, :w] = prefixes.take(cell, axis=0)
    for j, pad in enumerate(pads.view(np.uint64).T):  # 0xFF pads, never UTF-8 text
        out[:, w + j] = g.view(np.uint64)[:, j] | pad.take(size)
    flat = out.view(np.uint8).ravel()
    return flat[flat != 0xFF].tobytes(), left.size


def _write_in_order(make: Callable, parts: list, write: Callable) -> None:
    """``write(make(part))`` for each part in order, in rounds of one part per
    usable CPU: the main thread makes and writes a round's first part while a
    helper thread makes each other part, written in turn once joined.  A
    helper's error raises at its part's turn; no helper outlives its round,
    and with one CPU or one part none starts."""
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    k, made = min(usable, len(parts)), {}

    def build(i: int) -> None:
        try:
            made[i] = make(parts[i])
        except BaseException as err:  # raised by the main thread at part i's turn
            made[i] = err

    for first in range(0, len(parts), k):
        helpers = [threading.Thread(target=build, args=(i,))
                   for i in range(first + 1, min(first + k, len(parts)))]
        for thread in helpers:
            thread.start()
        try:
            write(make(parts[first]))
            for i, thread in enumerate(helpers, first + 1):
                thread.join()
                if isinstance(block := made.pop(i), BaseException):
                    raise block
                write(block)
        finally:
            for thread in helpers:
                thread.join()


# ---------------------------------------------------------------------------
# report container


@dataclass(frozen=True)
class Report:
    """Everything a run emits: payload, ledger, diagnostics, provenance.

    `raw` short-circuits rendering (simulate streaming CSV to stdout);
    otherwise the JSON form is the rounded `as_dict` and the table form
    prints the same numbers at table precision.
    """

    subcommand: str
    body: dict
    result: DecompositionResult | None = None
    ledger: AssumptionLedger | None = None
    diagnostics: dict | None = None
    provenance: dict | None = None
    raw: str | None = None

    def as_dict(self) -> dict:
        doc: dict[str, Any] = {"subcommand": self.subcommand}
        doc.update(self.body)
        if self.result is not None:
            doc["components"] = [
                {
                    "name": c.name,
                    "estimate": c.value,
                    "ci": list(c.ci) if c.ci is not None else None,
                    "in_sum": c.in_sum,
                }
                for c in self.result.components
            ]
            doc["te"] = self.result.te
            doc["sum_gap"] = self.result.sum_gap
        if self.ledger is not None:
            doc["assumptions"] = self.ledger.as_dict()
        if self.diagnostics is not None:
            doc["diagnostics"] = self.diagnostics
        if self.provenance is not None:
            doc["provenance"] = self.provenance
        return _round_floats(doc)

    def render(self, fmt: str) -> str:
        if self.raw is not None:
            return self.raw
        if fmt == "json":
            return json.dumps(self.as_dict(), indent=2, allow_nan=False)
        return self._render_table()

    def _render_table(self) -> str:
        doc = self.as_dict()
        lines: list[str] = []
        if "components" in doc:
            lines.extend(_component_lines(doc))
        elif self.subcommand == "fit":
            body = {k: v for k, v in doc.items() if k not in ("subcommand", "diagnostics", "provenance")}
            lines.extend(_diagnostic_lines(body, title="fit"))
        else:
            lines.extend(_kv_lines({k: v for k, v in doc.items() if k != "subcommand"}))
        if "assumptions" in doc:
            lines += ["", *_ledger_lines(doc["assumptions"])]
        if "diagnostics" in doc:
            lines += ["", *_diagnostic_lines(doc["diagnostics"])]
        if "provenance" in doc:
            lines += ["", "provenance: " + json.dumps(doc["provenance"], allow_nan=False)]
        return "\n".join(lines)


def _kv_lines(doc: Mapping[str, Any]) -> list[str]:
    return [f"{key}: {json.dumps(v, allow_nan=False) if isinstance(v, (Mapping, list)) else v}"
            for key, v in doc.items()]


def _component_lines(doc: Mapping[str, Any]) -> list[str]:
    rows = doc["components"]
    name_w = max(len("Component"), *(len(r["name"]) for r in rows))
    have_ci = any(r["ci"] is not None for r in rows)
    header = f"{'Component':<{name_w}}  {'Estimate':>10}"
    if have_ci:
        header += "  " + f"{100 * doc['provenance']['level']:g}% C.I.".rjust(22)
    lines = [header, "-" * len(header)]
    for r in rows:
        line = f"{r['name']:<{name_w}}  {_fmt4(r['estimate']):>10}"
        if have_ci:
            ci = r["ci"]
            shown = f"[{_fmt4(ci[0])}, {_fmt4(ci[1])}]" if ci is not None else ""
            line += f"  {shown:>22}"
        if not r["in_sum"]:
            line += "  *"
        lines.append(line)
    lines.append("-" * len(header))
    lines.append("* not part of the component sum")
    lines.append(f"TE = {_fmt4(doc['te'])}   sum gap = {_fmt4(doc['sum_gap'])}")
    return lines


def _ledger_lines(ledger: Mapping[str, Any]) -> list[str]:
    acked = all(a["acknowledged"] for a in ledger["assumptions"])
    status = "acknowledged" if acked else "NOT acknowledged (pass --ack-assumptions)"
    lines = [f"assumptions ({ledger['scenario']}), {status}:"]
    for a in ledger["assumptions"]:
        lines.append(f"  {a['id']}: {a['prose']}")
    return lines


def _scalar_text(value: Any) -> str:
    if isinstance(value, float):
        return _fmt4(value)
    if isinstance(value, list):
        return "[" + ", ".join(_scalar_text(v) for v in value) + "]"
    if isinstance(value, Mapping):
        return "{" + ", ".join(f"{k}={_scalar_text(v)}" for k, v in value.items()) + "}"
    return str(value)


def _diagnostic_lines(diag: Mapping[str, Any], title: str = "diagnostics") -> list[str]:
    lines = [f"{title}:"]
    for key, value in diag.items():
        if key == "tables":
            for eq, table in value.items():
                lines.append(f"  {eq} coefficients:")
                width = max(len(k) for k in table)
                for coef, est in table.items():
                    lines.append(f"    {coef:<{width}}  {_fmt4(est):>10}")
        elif isinstance(value, Mapping):
            inner = ", ".join(f"{k}={_scalar_text(v)}" for k, v in value.items())
            lines.append(f"  {key}: {inner}")
        else:
            lines.append(f"  {key}: {_scalar_text(value)}")
    return lines


# ---------------------------------------------------------------------------
# input parsing


def _parse_level(text: str | None) -> Any:
    """CLI levels: integer if it reads as one, then float, else the string."""
    if text is None:
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parse_profile(text: str) -> dict[str, float]:
    """``sex=1,age=48.3`` -> ordered name-to-value mapping."""
    profile: dict[str, float] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, eq, raw = chunk.partition("=")
        if not eq or not name.strip():
            raise ValueError(
                f"bad covariate setting {chunk!r}; expected name=value pairs "
                "separated by commas"
            )
        try:
            profile[name.strip()] = float(raw)
        except ValueError:
            raise ValueError(
                f"covariate {name.strip()!r} has non-numeric value {raw!r}"
            ) from None
    if not profile:
        raise ValueError("empty covariate profile")
    return profile


def load_roles(path: str) -> dict:
    """Role bindings: column names for exposure/m1[/m2]/outcome + covariates."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, Mapping):
        raise ValueError(f"{path}: roles file must be a JSON object")
    for key in ("exposure", "m1", "outcome"):
        if key not in doc:
            raise ValueError(f"{path}: roles file is missing the {key!r} binding")
    unknown = set(doc) - set(_ROLE_KEYS) - {"covariates"}
    if unknown:
        raise ValueError(f"{path}: unknown role keys {sorted(unknown)}")
    covs = doc.get("covariates", [])
    if not isinstance(covs, list) or not all(isinstance(c, str) for c in covs):
        raise ValueError(f"{path}: 'covariates' must be a list of column names")
    return dict(doc)


def _type_column(cells: list[str], column: str, lines: list[int], numeric_only: bool):
    """Ints if every cell reads as one, else floats, else (maybe) strings."""
    try:
        return np.array([int(c) for c in cells])
    except ValueError:
        pass
    try:
        return np.array([float(c) for c in cells], dtype=float)
    except ValueError:
        if not numeric_only:
            return np.array(cells, dtype=object)
    for cell, lineno in zip(cells, lines):
        try:
            float(cell)
        except ValueError:
            raise ValueError(
                f"line {lineno}: cannot read {cell!r} as a number for "
                f"column {column!r}"
            ) from None
    raise AssertionError("unreachable")


def _plain_columns(path: str, names: Sequence[str]) -> dict[str, np.ndarray] | None:
    """The named columns of a headered CSV, or None for text this reader
    cannot vouch for, which `_csv_columns` reads instead: not ASCII, a quote,
    CR or NUL, a line over the csv field size limit or (empty lines aside)
    without the header's field count, a named cell `float` rejects or with a
    byte outside ``0-9+-.eE``, an integer past int64, or -0 in an int column.
    A column is int64 when every cell is ``[+-]?digits``, else float.  In
    blocks of about `_READ_BLOCK` lines, one scan for bytes below ``/`` finds
    the line ends and field ends; an empty line, a line end one byte after
    another, is dropped, and the field after it starts past its line end.
    Cells are parsed eight digits to a uint64 word (Lemire's SWAR) into the
    mantissa M and decimal count k of each cell ``[+-]?I[.F]`` of at most 19
    digits, I at most 8.  M / 10^k is exact when M <= 2^53
    (Clinger); past that, x = M / 10^k moves by the ulps the exact residual
    ``M - x 10^k`` (Dekker) gives, kept only 1e-9 inside ``ulp(x) / 2 * 10^k``
    and no power of two.  Exponents, 20 digits, ``.5``, ``5.``, ties: `float`.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.isascii() or b'"' in raw or b"\r" in raw or b"\0" in raw:
        return None
    raw += b"" if raw.endswith(b"\n") else b"\n"
    head = raw[: raw.index(b"\n")].decode("ascii")
    fields, limit = head.split(",") if head else [], csv.field_size_limit()
    if not set(names) <= set(fields) or len(head) > limit:
        return None
    width, lines = len(fields), raw.count(b"\n")
    chunk, out = len(raw) * _READ_BLOCK // lines, {name: np.empty(lines, np.int64) for name in names}
    tens, p10 = np.array([float(10**k) for k in range(20)]), 10 ** np.arange(20, dtype=np.uint64)
    keep = np.array([2**64 - 2 ** (64 - 8 * c) for c in range(9)], np.uint64)  # top c bytes
    rows, start = 0, len(head) + 1
    while start < len(raw):
        stop = raw.find(b"\n", start + chunk) + 1 or len(raw)
        blk = np.full(stop - start + 24, 48, np.uint8)  # room for every word read, and
        blk[23], blk[24:] = 10, np.frombuffer(raw, np.uint8, stop - start, start)  # a line end
        tok = np.flatnonzero(blk < 47)  # line ends, commas, signs, points, other low bytes
        kind = blk.take(tok)
        nl = kind == 10
        at, lines = np.flatnonzero(nl | (kind == 44)), np.count_nonzero(nl) - 1  # field ends in tok
        sep = tok.take(at)
        before, starts = at[:-1], sep[:-1] + 1  # each field's separator in tok, and its start
        if (np.diff(tok[nl]) == 1).any():  # drop empty lines: a line end right after another
            nl = nl.take(at)
            full = np.flatnonzero(np.append(True, ~nl[1:] | ~nl[:-1] | (np.diff(sep) > 1)))
            at, before, lines = at.take(full), at.take(full[1:] - 1), lines - len(at) + len(full)
            sep, starts = tok.take(at), tok.take(before) + 1
        start, n, ends = stop, (len(sep) - 1) // width, sep[1:]
        if (n * width + 1 != len(sep) or lines != n or (blk.take(sep[width::width]) != 10).any()
                or (ends[width - 1 :: width] - starts[::width] > limit).any()):
            return None
        words = np.ndarray((len(blk) - 7,), "<u8", blk, 0, (1,))  # bytes p to p + 7
        for name, column in out.items():
            j = fields.index(name)
            e, s, a = ends[j::width], starts[j::width], at[j + 1 :: width]
            if column.dtype == np.int64 and (e - s == 1).all():  # one-digit codes
                column[rows : rows + n] = digit = blk.take(s) - 48
                if (digit > 9).any():
                    return None
                continue
            first, last, extra = blk.take(s), tok.take(a - 1), a - before[j::width] - 1  # low bytes
            neg, signed = first == 45, (first == 43) | (first == 45)
            point = (extra - signed == 1) & (blk.take(last) == 46)
            dot = np.where(point, last, s + signed - 1)
            nf, ni = e - dot - 1, dot - s - signed  # digits after the point (or all), before
            ok = (extra - signed <= 1) & (nf > 0) & (ni != 0) & (ni <= 8) & (nf + abs(ni) <= 19)
            runs = [(e - 8 * i, nf - 8 * i, p10[8 * i]) for i in range(3) if (ok & (nf > 8 * i)).any()]
            runs += [(dot, ni, p10.take(nf, mode="clip"))] if (ok & point).any() else []
            m, bad = np.zeros(n, np.uint64), 0
            for end, count, scale in runs:
                v = (words[end - 8] ^ 0x3030303030303030) & keep.take(count, mode="clip")
                bad |= (v + 0x7676767676767676) & 0x8080808080808080  # a byte past '9'
                v = (v * 2561 >> 8 & 0x00FF00FF00FF00FF) * 6553601 >> 16
                m += ((v & 0x0000FFFF0000FFFF) * 42949672960001 >> 32) * scale
            ok &= bad == 0
            ten = tens.take(np.where(ok & point, nf, 0))
            x, proved, hard = m / ten, ok.copy(), np.flatnonzero(ok & (m > 2**53))
            hi, lo = _dekker(x[hard], ten[hard])
            r = (m[hard] - hi.astype(np.uint64)).view(np.int64) - lo  # M - x 10^k
            bits = x[hard].view(np.int64)
            half = ((bits >> 52) - 53 << 52).view(np.float64) * ten[hard]  # ulp / 2 * 10^k
            step = np.rint(r / (2 * half))
            moved = bits + step.astype(np.int64)
            x[hard] = moved.view(np.float64)
            proved[hard] = ((np.abs(r - step * 2 * half) < half - 1e-9) & (moved >> 52 == bits >> 52)
                            & (moved & 2**52 - 1 != 0))
            values, isint = m.view(np.int64), ok & ~point
            for signed_values in (x, values):
                np.negative(signed_values, out=signed_values, where=neg)
            try:
                for i in np.flatnonzero(~proved).tolist():
                    text = blk[s[i] : e[i]].tobytes()
                    x[i] = float(b"?" if text.translate(None, b"0123456789+-.eE") else text)
                    if not ok[i] and text[text[:1] in b"+-" :].isdigit():
                        isint[i], values[i] = True, int(text)
            except (ValueError, OverflowError):  # not a number, or an integer beyond int64
                return None
            if column.dtype == np.int64 and isint.all():
                if (neg & (m == 0)).any():  # "-0" is 0 here, -0.0 once the column is float
                    return None
                column[rows : rows + n] = values
            else:
                out[name] = column = column.astype(np.float64, copy=False)
                column[rows : rows + n] = x
        rows += n
    return {name: column[:rows] for name, column in out.items()} if rows else None


def _csv_columns(path: str, names: Sequence[str]) -> tuple[Any, int]:
    """Read a headered CSV with the csv module: a ``column(name,
    numeric_only)`` reader of the kept rows, and the count of rows dropped
    for a blank field in one of `names`."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file has no header row") from None
        except csv.Error as err:
            raise ValueError(f"{path}: line 1: {err}") from None
        index: dict[str, int] = {}
        for column in names:
            if column not in header:
                raise ValueError(f"{path}: header has no column {column!r}")
            index[column] = header.index(column)
        kept: list[list[str]] = []
        kept_lines: list[int] = []
        dropped = 0
        while True:
            try:
                row = next(reader)
            except StopIteration:
                break
            except csv.Error as err:
                raise ValueError(f"{path}: line {reader.line_num}: {err}") from None
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: line {reader.line_num}: expected {len(header)} "
                    f"fields, found {len(row)}"
                )
            if any(row[i].strip() == "" for i in index.values()):
                dropped += 1
                continue
            kept.append(row)
            kept_lines.append(reader.line_num)
    if not kept:
        raise ValueError(f"{path}: no usable rows")

    def column(name: str, numeric_only: bool) -> np.ndarray:
        cells = [r[index[name]].strip() for r in kept]
        try:
            return _type_column(cells, name, kept_lines, numeric_only)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None

    return column, dropped


def load_dataset(path: str, roles: Mapping[str, Any]) -> Dataset:
    """Read a headered CSV under the role bindings.

    Quoting follows the csv module's defaults; an empty bound field marks
    the row missing and listwise deletion drops it, counted in the result.
    Outcome and covariate columns must be numeric; exposure and mediator
    columns may stay categorical strings.  Plain numeric text is read by a
    numpy kernel (`_plain_columns`); any other text, and every error, goes
    through the csv module (`_csv_columns`), and both give the same dataset.
    """
    cov_names = list(roles.get("covariates", []))
    bound = {role: roles[role] for role in _ROLE_KEYS if roles.get(role)}
    names = list(bound.values()) + cov_names
    fast = _plain_columns(path, names)
    if fast is None:
        column, dropped = _csv_columns(path, names)
    else:
        column, dropped = (lambda name, numeric_only: fast[name]), 0
    covariates = {name: column(name, True) for name in cov_names}
    return Dataset(
        exposure=column(bound["exposure"], False),
        m1=column(bound["m1"], False),
        outcome=column(bound["outcome"], True),
        m2=column(bound["m2"], False) if "m2" in bound else None,
        covariates=covariates,
        n_dropped=dropped,
    )


def _resolve_seed(explicit: int | None) -> int:
    source = "NATFX_SEED" if explicit is None else "--seed"
    raw = os.environ.get("NATFX_SEED", "0") if explicit is None else explicit
    try:
        seed = int(raw)
    except ValueError:
        raise ValueError(f"{source} must be an integer, got {raw!r}") from None
    if seed < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _query_from(args: argparse.Namespace) -> Query:
    return Query(
        a=_parse_level(args.a),
        a_star=_parse_level(args.aref),
        m1_star=_parse_level(args.m1star),
        m2_star=_parse_level(args.m2star),
    )


def _query_echo(q: Query) -> dict:
    return {"a": q.a, "a*": q.a_star, "m1*": q.m1_star, "m2*": q.m2_star}


# ---------------------------------------------------------------------------
# subcommands


def _run_check(args: argparse.Namespace) -> tuple[Report, int]:
    scenario = Scenario.from_id(args.scenario)
    expr = parse_cf(args.formula, scenario)
    verdict = check_identifiability(expr, scenario)
    body = {
        "formula": format_cf(expr),
        "scenario": scenario.id,
        "status": verdict.status,
        "conflicts": [
            {"mediator": c.mediator, "specs": list(c.specs)}
            for c in verdict.conflicts
        ],
    }
    return Report("check", body), 0 if verdict.identifiable else 2


def _run_eval(args: argparse.Namespace) -> tuple[Report, int]:
    model = load_model(args.model)
    expr = parse_cf(args.formula, model.scenario)
    binding = {k: v for k, v in _query_from(args).to_binding().items() if v is not None}
    value = eval_expectation(model, expr, binding)
    body = {
        "formula": format_cf(expr),
        "scenario": model.scenario.id,
        "binding": binding,
        "value": value,
    }
    return Report("eval", body), 0


def _spell(column: str, level: str) -> str:
    """The csv module's spelling of a level; its "\r\n" terminator quotes a
    level holding either line break.  `load_dataset` would read an empty level
    as missing and strip a padded one, so those are refused."""
    if not level or level != level.strip():
        raise ValueError(f"column {column} level {level!r} would not read back from CSV: "
                         "a level must be non-empty, with no leading or trailing whitespace")
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow([level])
    return buffer.getvalue()[:-2]


def _spellings(column: str, levels: list[str]) -> list[str]:
    """Each level's `_spell`, refusing two numeric levels that some sample
    could read back as one value: `_type_column` types them together as
    ints, else floats, so ``01`` and ``1``, or ``1`` and ``1.0``, merge."""
    spelled = [_spell(column, lv) for lv in levels]
    numeric = [lv for lv in levels if not isinstance(_parse_level(lv), str)]
    seen: dict[Any, str] = {}
    for level, value in zip(numeric, _type_column(numeric, column, [], True).tolist()):
        if (other := seen.setdefault("nan" if value != value else value, level)) != level:
            raise ValueError(f"column {column} levels {other!r} and {level!r} would read back "
                             f"from CSV as one value, {value!r}")
    return spelled


def _run_simulate(args: argparse.Namespace) -> tuple[Report, int]:
    model = load_model(args.model)
    seed = _resolve_seed(args.seed)
    columns = ["A", "M1", "M2"][: model.k + 1] + ["Y"]
    supports = (model.exposure_levels, model.m1_levels, model.m2_levels)[: model.k + 1]
    # as simulate's numpy string arrays give levels back (they drop trailing NULs)
    spelled = [_spellings(c, np.asarray(lv).tolist()) for c, lv in zip(columns, supports)]
    heads = [("\n" + ",".join(cell) + ",").encode() for cell in itertools.product(*spelled)]
    width = -(-max(map(len, heads)) // 8) * 8  # whole uint64 words
    prefixes = np.frombuffer(b"".join(h.ljust(width, b"\xff") for h in heads), np.uint64)
    codes, outcome = _draw(model, args.n, seed, args.noise_sd)
    cell = np.ravel_multi_index(codes, tuple(map(len, spelled)))
    del codes  # freed before the blocks' temporaries peak
    ends = range(_SIMULATE_CHUNK, args.n, _SIMULATE_CHUNK)
    parts = list(zip(np.split(cell, ends), np.split(outcome, ends)))
    make = lambda part: _csv_rows(prefixes.reshape(len(heads), -1), *part)[0]  # each row starts "\n"
    header = ",".join(columns).encode()
    if args.out is None:
        _write_in_order(make, parts, (blocks := [header]).append)
        return Report("simulate", {}, raw=b"".join(blocks).decode()), 0
    with open(args.out, "wb") as fh:
        fh.write(header)
        _write_in_order(make, parts, fh.write)  # each block as soon as it and those before are made
        fh.write(b"\n")
    body = {"rows": args.n, "columns": columns, "seed": seed, "noise_sd": args.noise_sd,
            "out": args.out}
    return Report("simulate", body), 0


def _run_decompose(args: argparse.Namespace) -> tuple[Report, int]:
    model = load_model(args.model)
    if args.scenario is not None and Scenario.from_id(args.scenario) != model.scenario:
        raise ValueError(
            f"--scenario {args.scenario} does not match the model file's "
            f"scenario {model.scenario.id}"
        )
    q = _query_from(args)
    result = decompose(model, q, extended=args.extended)
    ledger = AssumptionLedger.for_scenario(model.scenario, args.ack_assumptions)
    provenance = {
        "model": args.model,
        "scenario": model.scenario.id,
        "query": _query_echo(q),
        "extended": args.extended,
    }
    report = Report(
        "decompose",
        {"scenario": model.scenario.id},
        result=result,
        ledger=ledger,
        provenance=provenance,
    )
    return report, 0


def _run_fit(args: argparse.Namespace) -> tuple[Report, int]:
    roles = load_roles(args.roles)
    data = load_dataset(args.data, roles)
    fit = fit_linear_system(data, log_m2=args.log_m2)
    body = fit.to_dict()
    provenance = {
        "data": args.data,
        "roles": dict(roles),
        "transforms": {"m2": "log"} if args.log_m2 else {},
    }
    diagnostics = {"pivot_ratio": fit.pivot_ratio, "residual_dof": fit.residual_dof}
    return Report("fit", body, diagnostics=diagnostics, provenance=provenance), 0


def _load_params_document(path: str) -> tuple[LinearParams, dict]:
    """Accept either a bare parameter object or a full fit document."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and "params" in doc:
        return LinearParams.from_dict(doc["params"]), doc
    return LinearParams.from_dict(doc), {}


def _resolve_star(raw: str | None, role: str, means: Mapping[str, float] | None) -> Any:
    if raw != "mean":
        return _parse_level(raw)
    if not means or role not in means:
        raise ValueError(
            f"--{role}star mean needs a fit document that records sample "
            "means; refit with the fit subcommand or pass a number"
        )
    return float(means[role])


def _align_profile(
    profile: dict[str, float] | None, names: Sequence[str] | None, k: int
) -> CovariateProfile | None:
    """Order a name=value profile against the fit's covariate names."""
    if profile is None:
        if k:
            # covariates enter every equation; an unstated profile means
            # all-zero, which the provenance block makes visible
            return CovariateProfile(values=(0.0,) * k, names=tuple(names) if names else None)
        return None
    if names:
        missing = [n for n in names if n not in profile]
        extra = [n for n in profile if n not in names]
        if missing or extra:
            raise ValueError(
                f"covariate profile does not match the fit: missing "
                f"{missing or 'none'}, unknown {extra or 'none'}; the fit "
                f"used {list(names)}"
            )
        ordered = tuple(profile[n] for n in names)
        return CovariateProfile(values=ordered, names=tuple(names))
    return CovariateProfile(values=tuple(profile.values()), names=tuple(profile))


def _linear_query(
    args: argparse.Namespace, means: Mapping[str, float] | None, names: Sequence[str] | None, k: int
) -> tuple[Query, CovariateProfile | None]:
    """The query and covariate profile of a linear decomposition from a fit
    with sample `means` and `k` covariates named `names`."""
    q = Query(
        a=_parse_level(args.a),
        a_star=_parse_level(args.aref),
        m1_star=_resolve_star(args.m1star, "m1", means),
        m2_star=_resolve_star(args.m2star, "m2", means),
    )
    profile = _align_profile(_parse_profile(args.cov) if args.cov else None, names, k)
    return q, profile


def _profile_echo(profile: CovariateProfile | None) -> dict | list:
    """The profile the components were evaluated at, for provenance."""
    if profile is None:
        return {}
    if profile.names:
        return dict(zip(profile.names, profile.values))
    return list(profile.values)


def _run_decompose_linear(args: argparse.Namespace) -> tuple[Report, int]:
    params, fitdoc = _load_params_document(args.params)
    q, profile = _linear_query(
        args, fitdoc.get("sample_means"), fitdoc.get("covariates"), params.n_covariates
    )
    result = linear_components(params, q, profile)
    ledger = AssumptionLedger.for_scenario(Scenario.chain(2), args.ack_assumptions)
    diagnostics: dict[str, Any] = {"sigma2_m1": params.sigma2_m1}
    for key in ("sigma2_y", "sigma2_m2", "n_used", "n_dropped"):
        if key in fitdoc:
            diagnostics[key] = fitdoc[key]
    provenance = {
        "params": args.params,
        "query": _query_echo(q),
        "covariate_profile": _profile_echo(profile),
    }
    report = Report(
        "decompose-linear",
        {"scenario": "seq2"},
        result=result,
        ledger=ledger,
        diagnostics=diagnostics,
        provenance=provenance,
    )
    return report, 0


def _run_bootstrap_report(args: argparse.Namespace) -> tuple[Report, int]:
    if args.method == "plugin":
        linear_only = (("--cov", args.cov is not None), ("--log-m2", args.log_m2))
        if given := [flag for flag, on in linear_only if on]:
            raise ValueError(f"the plugin method does not take {' or '.join(given)}; "
                             "use --method linear")
    elif args.scenario and Scenario.from_id(args.scenario) != Scenario.chain(2):
        raise ValueError("the linear method fits the seq2 model only, "
                         f"not --scenario {args.scenario}")
    roles = load_roles(args.roles)
    if args.method == "plugin" and roles.get("covariates"):  # a blank covariate would drop its row
        raise ValueError(f"the plugin method does not adjust for covariates "
                         f"({', '.join(roles['covariates'])}); use --method linear")
    data = load_dataset(args.data, roles)
    seed = _resolve_seed(args.seed)
    cfg = BootstrapConfig(
        replicates=args.boot,
        level=args.level,
        seed=seed,
        max_fail=args.max_fail,
    )
    diagnostics: dict[str, Any] = {}

    if args.method == "linear":
        full = fit_linear_system(data, log_m2=args.log_m2)
        q, profile = _linear_query(
            args, full.sample_means, full.covariate_names, full.params.n_covariates
        )
        estimator = LinearEstimator(q, profile, args.log_m2)
        # the estimator on the full data, from the fit already made
        point = linear_components(full.params, q, profile)
        scenario = Scenario.chain(2)
        diagnostics = {
            "sigma2_m1": full.params.sigma2_m1,
            "sigma2_y": full.sigma2_y,
            "sigma2_m2": full.sigma2_m2,
            "n_used": full.n_used,
            "n_dropped": full.n_dropped,
            "tables": full.tables,
            "pivot_ratio": full.pivot_ratio,
            "residual_dof": full.residual_dof,
        }
    else:
        scenario = Scenario.from_id(args.scenario) if args.scenario else (
            Scenario.chain(2) if data.m2 is not None else Scenario.single()
        )
        q = _query_from(args)
        estimator = PluginEstimator(scenario, q)
        point = None
        diagnostics = {"n_used": data.n, "n_dropped": data.n_dropped}

    result = bootstrap(data, estimator, cfg, point=point)
    diagnostics["replicates"] = result.diagnostics
    ledger = AssumptionLedger.for_scenario(scenario, args.ack_assumptions)
    provenance = {
        "data": args.data,
        "roles": dict(roles),
        "method": args.method,
        "scenario": scenario.id,
        "query": _query_echo(q),
        "transforms": {"m2": "log"} if args.log_m2 else {},
        "seed": seed,
        "replicates": cfg.replicates,
        "level": cfg.level,
        "max_fail": cfg.max_fail,
    }
    if args.method == "linear":
        provenance["covariate_profile"] = _profile_echo(profile)
    report = Report(
        "bootstrap-report",
        {"scenario": scenario.id},
        result=result,
        ledger=ledger,
        diagnostics=diagnostics,
        provenance=provenance,
    )
    return report, 0


_DISPATCH = {
    "check": _run_check,
    "eval": _run_eval,
    "simulate": _run_simulate,
    "decompose": _run_decompose,
    "fit": _run_fit,
    "decompose-linear": _run_decompose_linear,
    "bootstrap-report": _run_bootstrap_report,
}


def run(args: argparse.Namespace) -> tuple[Report, int]:
    """Route `build_parser()`'s parsed arguments; identifiability errors bubble up."""
    return _DISPATCH[args.subcommand](args)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; 2 is reserved for
    # identifiability rejection here, so usage errors exit 1
    def error(self, message: str):  # noqa: D102
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_query_flags(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--a", required=required, help="treatment exposure level a")
    p.add_argument("--aref", required=required, help="reference exposure level a*")
    p.add_argument("--m1star", help="fixed M1 level m1* (or 'mean' on the linear path)")
    p.add_argument("--m2star", help="fixed M2 level m2* (or 'mean' on the linear path)")


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="CSV path")
    p.add_argument("--roles", required=True, help="roles JSON path")


def _add_format(p: argparse.ArgumentParser, ledger: bool = False) -> None:
    """`--format`; a command that prints an assumption ledger also takes
    `--ack-assumptions` and prints a table by default."""
    if ledger:
        p.add_argument("--ack-assumptions", action="store_true", dest="ack_assumptions")
    p.add_argument("--format", choices=("json", "table"), default="table" if ledger else "json")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="natfx", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("check", help="identifiability verdict for a formula")
    p.add_argument("--scenario", required=True, help="single, nonseq2, or seq2")
    p.add_argument("formula", help="counterfactual formula, e.g. 'Y(a, M1(a*))'")
    _add_format(p)

    p = sub.add_parser("eval", help="expectation of a formula on a model file")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("formula")
    _add_query_flags(p, required=False)
    _add_format(p)

    p = sub.add_parser("simulate", help="draw a CSV sample from a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--noise-sd", type=float, default=1.0, dest="noise_sd")
    p.add_argument("--out", help="CSV destination (stdout when omitted)")
    _add_format(p)

    p = sub.add_parser("decompose", help="exact decomposition of a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--scenario", help="assert the model file's scenario")
    _add_query_flags(p)
    p.add_argument("--extended", action="store_true", help="append TDE and SIE_M1")
    _add_format(p, ledger=True)

    p = sub.add_parser("fit", help="three-equation least squares on a CSV")
    _add_data_flags(p)
    p.add_argument("--log-m2", action="store_true", dest="log_m2")
    _add_format(p)

    p = sub.add_parser(
        "decompose-linear", help="closed-form decomposition from fitted parameters"
    )
    p.add_argument("--params", required=True, help="parameter or fit JSON path")
    _add_query_flags(p)
    p.add_argument("--cov", help="covariate profile, e.g. sex=1,age=48.3")
    _add_format(p, ledger=True)

    p = sub.add_parser(
        "bootstrap-report", help="decomposition with percentile bootstrap intervals"
    )
    _add_data_flags(p)
    p.add_argument("--method", choices=("plugin", "linear"), default="plugin")
    p.add_argument("--scenario", help="plug-in scenario (default from the roles)")
    _add_query_flags(p)
    p.add_argument("--cov", help="covariate profile for the linear method")
    p.add_argument("--log-m2", action="store_true", dest="log_m2")
    p.add_argument("--boot", type=int, default=BootstrapConfig.replicates,
                   help="bootstrap replicates")
    p.add_argument("--level", type=float, default=BootstrapConfig.level)
    p.add_argument("--seed", type=int, help="master seed (NATFX_SEED, then 0)")
    p.add_argument("--max-fail", type=float, default=BootstrapConfig.max_fail, dest="max_fail")
    _add_format(p, ledger=True)
    return parser


_parser = functools.cache(build_parser)  # main's: a build is ~2.4 ms and ~490 cyclic objects


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        report, code = run(args)
        text = report.render(args.format)
    except (NotIdentifiable, EvaluationOfProblematicSpec) as err:
        print(f"natfx: {err}", file=sys.stderr)
        return 2
    except KeyError as err:
        print(f"natfx: error: input document is missing key {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError, RuntimeError) as err:
        print(f"natfx: error: {err}", file=sys.stderr)
        return 1
    if text:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
