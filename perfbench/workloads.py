"""Benchmark workloads: seeded input generators, the CLI calls of one op, and
the output checks every op must pass.

Each workload builds its inputs (CSV, roles JSON, model JSON) in a scratch
directory from the workload seed before anything is timed.  One op is a
fixed list of ``natfx`` command lines; `Inputs.check_outputs` turns the
text they printed into a list of problems, empty when the op is correct.  The
reference values the checks compare against are computed here with numpy
and plain loops, independently of the code paths the op exercises.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

SUM_GAP_TOL = 1e-9
VALUE_TOL = 1e-9
# least-squares coefficients from the pivoted QR and from numpy's SVD solver
# agree to ~1e-13 on these well-conditioned designs; the report prints 12
# significant digits
COEF_TOL = 1e-8

QUERY_FLAGS = ["--a", "1", "--aref", "0", "--m1star", "0", "--m2star", "0"]
ROLES_AM1M2Y = {"exposure": "A", "m1": "M1", "m2": "M2", "outcome": "Y"}

# Generating model of the seq2 plug-in data and of the simulate-fit model
# file: A in {0,1} -> M1 in {0,1,2} -> M2 in {0,1,2} -> Y.  The smallest cell
# has probability 0.03, so no bootstrap resample of 5,000 rows leaves a cell
# empty in practice.
SEQ2_PA = (0.5, 0.5)
SEQ2_PM1 = ((0.5, 0.3, 0.2), (0.25, 0.35, 0.4))
SEQ2_PM2 = (
    ((0.5, 0.3, 0.2), (0.4, 0.35, 0.25), (0.3, 0.4, 0.3)),
    ((0.35, 0.35, 0.3), (0.25, 0.4, 0.35), (0.2, 0.3, 0.5)),
)

# Non-sequential generator: M1 and M2 independent given A, four levels each,
# smallest cell probability 0.02.
NONSEQ_PA = (0.5, 0.5)
NONSEQ_PM1 = ((0.3, 0.25, 0.25, 0.2), (0.2, 0.25, 0.25, 0.3))
NONSEQ_PM2 = ((0.2, 0.3, 0.25, 0.25), (0.25, 0.25, 0.3, 0.2))


def _ymean(a: int, m1: int, m2: int) -> float:
    return (1.0 + 0.8 * a + 0.5 * m1 + 0.4 * m2 + 0.3 * a * m1 + 0.2 * a * m2
            + 0.1 * m1 * m2 + 0.05 * a * m1 * m2)


# ---------------------------------------------------------------------------
# shared helpers


def _draw(rng: np.random.Generator, probs: np.ndarray) -> np.ndarray:
    """One categorical draw per row of `probs` (shape n x k)."""
    u = rng.random(len(probs))
    idx = (np.cumsum(probs, axis=1) < u[:, None]).sum(axis=1)
    return np.minimum(idx, probs.shape[1] - 1)


def _write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in zip(*(c.tolist() for c in columns)):
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _parse_report(text: str, what: str, problems: list[str]) -> dict | None:
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        problems.append(f"{what}: output is not JSON ({err})")
        return None


def _check_components(doc: dict, what: str, problems: list[str]) -> None:
    """Every estimate and interval end finite; the component sum closes."""
    rows = doc.get("components") or []
    if not rows:
        problems.append(f"{what}: report has no components")
    for row in rows:
        values = [row.get("estimate")] + list(row.get("ci") or [])
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
            problems.append(f"{what}: component {row.get('name')} is not finite: {values}")
    te, gap = doc.get("te"), doc.get("sum_gap")
    if not (isinstance(te, (int, float)) and math.isfinite(te)):
        problems.append(f"{what}: te is not finite: {te}")
    if not (isinstance(gap, (int, float)) and gap <= SUM_GAP_TOL):
        problems.append(f"{what}: sum_gap {gap} exceeds {SUM_GAP_TOL}")


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def _check_value(got, want: float, label: str, tol: float, problems: list[str]) -> None:
    if not isinstance(got, (int, float)) or not _close(got, want, tol):
        problems.append(f"{label}: got {got}, expected {want!r}")


def _check_coefficients(tables: dict, want: dict, what: str, problems: list[str]) -> None:
    """Fitted coefficient tables against `lstsq` on the same designs."""
    for eq, coefs in want.items():
        got = (tables or {}).get(eq)
        if got is None or list(got) != list(coefs):
            problems.append(f"{what}: {eq} table has terms {got and list(got)}, expected {list(coefs)}")
            continue
        for term, value in coefs.items():
            _check_value(got[term], value, f"{what}: {eq} {term}", COEF_TOL, problems)


def _lstsq_tables(a, m1, m2, y, covs: dict[str, np.ndarray]) -> dict:
    """Coefficient tables of the three regressions, by `numpy.linalg.lstsq`."""
    ones = np.ones_like(a)
    names_c = list(covs)
    cols_c = [covs[c] for c in names_c]
    designs = {
        "outcome": (["intercept", "A", "M1", "M2", "A:M1", "A:M2", "M1:M2", "A:M1:M2"],
                    [ones, a, m1, m2, a * m1, a * m2, m1 * m2, a * m1 * m2], y),
        "m2": (["intercept", "A", "M1", "A:M1"], [ones, a, m1, a * m1], m2),
        "m1": (["intercept", "A"], [ones, a], m1),
    }
    tables = {}
    for eq, (names, cols, response) in designs.items():
        x = np.column_stack(cols + cols_c)
        coef = np.linalg.lstsq(x, response, rcond=None)[0]
        tables[eq] = dict(zip(names + names_c, (float(v) for v in coef)))
    return tables


def _nonseq_cell_te(a: np.ndarray, m1: np.ndarray, m2: np.ndarray, y: np.ndarray,
                    shape: tuple[int, int, int]) -> float:
    """Non-sequential plug-in TE of A=1 against A=0 from cell frequencies:
    sum over (m1, m2) of ybar[a,m1,m2] * P(m1 | a) * P(m2 | a)."""
    counts = np.zeros(shape)
    ysum = np.zeros(shape)
    np.add.at(counts, (a, m1, m2), 1.0)
    np.add.at(ysum, (a, m1, m2), y)
    n_a = counts.sum(axis=(1, 2))
    p1 = counts.sum(axis=2) / n_a[:, None]
    p2 = counts.sum(axis=1) / n_a[:, None]
    world = (p1[:, :, None] * p2[:, None, :] * ysum / counts).sum(axis=(1, 2))
    return float(world[1] - world[0])


def _triple_loop_te(model: dict) -> float:
    """TE of a seq2 model file by the definition, in plain loops."""
    lv = model["levels"]
    treated, reference = lv["treatment"], lv["reference"]

    def world(a: str) -> float:
        total = 0.0
        for m1 in lv["m1"]:
            for m2 in lv["m2"]:
                total += model["pm1"][a][m1] * model["pm2"][a][m1][m2] * model["ymean"][a][m1][m2]
        return total

    return world(treated) - world(reference)


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Size:
    """Input sizes of one workload; the benchmark runs the full ones."""

    n: int
    boot: int


@dataclass
class Workload:
    name: str
    why: str
    full: Size
    tiny: Size
    build: Callable[[str, int, Size], "Inputs"]


@dataclass
class Inputs:
    """Everything one workload's ops need, generated before timing.

    `commands` are the CLI argument lists of one op, run in order.
    `check_outputs(stdouts)` returns the problems of one op's printed text;
    `files` are written by the op and belong to its output.
    """

    commands: list[list[str]]
    check_outputs: Callable[[list[str]], list[str]]
    files: list[str] = field(default_factory=list)


def _plugin_inputs(tmp: str, seed: int, size: Size, sequential: bool) -> Inputs:
    from natfx.decomp import Query, decompose
    from natfx.scm import Dataset, Scenario, from_dataset

    rng = np.random.default_rng([seed, 1 if sequential else 2])
    n = size.n
    pa, pm1 = (SEQ2_PA, SEQ2_PM1) if sequential else (NONSEQ_PA, NONSEQ_PM1)
    a = _draw(rng, np.tile(pa, (n, 1)))
    m1 = _draw(rng, np.asarray(pm1)[a])
    if sequential:
        m2 = _draw(rng, np.asarray(SEQ2_PM2)[a, m1])
    else:
        m2 = _draw(rng, np.asarray(NONSEQ_PM2)[a])
    y = np.array([_ymean(i, j, k) for i, j, k in zip(a.tolist(), m1.tolist(), m2.tolist())])
    y = y + rng.normal(size=n)
    data_path = os.path.join(tmp, "data.csv")
    roles_path = os.path.join(tmp, "roles.json")
    _write_csv(data_path, ["A", "M1", "M2", "Y"], [a, m1, m2, y])
    _write_json(roles_path, ROLES_AM1M2Y)
    scenario = "seq2" if sequential else "nonseq2"
    command = ["bootstrap-report", "--data", data_path, "--roles", roles_path,
               "--method", "plugin", "--scenario", scenario, *QUERY_FLAGS,
               "--boot", str(size.boot), "--seed", str(seed), "--format", "json"]

    if sequential:
        # catalog x enumeration on the full data, the reference engine
        ref = decompose(
            from_dataset(Dataset(exposure=a, m1=m1, m2=m2, outcome=y), Scenario.chain(2)),
            Query(a=1, a_star=0, m1_star=0, m2_star=0),
        )
        want = {c.name: c.value for c in ref.components}
        want_te = ref.te
    else:
        want = None
        want_te = _nonseq_cell_te(a, m1, m2, y, (2, 4, 4))

    def check(outs: list[str]) -> list[str]:
        problems: list[str] = []
        doc = _parse_report(outs[0], "bootstrap-report", problems)
        if doc is None:
            return problems
        _check_components(doc, "bootstrap-report", problems)
        if want is not None:
            got = {r.get("name"): r.get("estimate") for r in doc.get("components", [])}
            if list(got) != list(want):
                problems.append(f"components {list(got)}, expected {list(want)}")
            for name, value in want.items():
                _check_value(got.get(name), value, f"point {name}", VALUE_TOL, problems)
        _check_value(doc.get("te"), want_te, "te", VALUE_TOL, problems)
        return problems

    return Inputs([command], check)


def _linear_inputs(tmp: str, seed: int, size: Size) -> Inputs:
    rng = np.random.default_rng([seed, 3])
    n = size.n
    c1 = rng.normal(size=n)
    c2 = (rng.random(n) < 0.4).astype(float)
    a = (rng.random(n) < 0.5).astype(float)
    m1 = 0.5 + 0.8 * a + 0.3 * c1 - 0.2 * c2 + rng.normal(size=n)
    log_m2 = 0.2 + 0.3 * a + 0.25 * m1 + 0.1 * a * m1 + 0.1 * c1 + 0.05 * c2 + 0.5 * rng.normal(size=n)
    m2 = np.exp(log_m2)
    y = (1.0 + 0.5 * a + 0.4 * m1 + 0.6 * log_m2 + 0.2 * a * m1 + 0.15 * a * log_m2
         + 0.1 * m1 * log_m2 + 0.05 * a * m1 * log_m2 + 0.3 * c1 - 0.25 * c2 + rng.normal(size=n))
    data_path = os.path.join(tmp, "data.csv")
    roles_path = os.path.join(tmp, "roles.json")
    _write_csv(data_path, ["A", "M1", "M2", "Y", "C1", "C2"], [a.astype(int), m1, m2, y, c1, c2.astype(int)])
    _write_json(roles_path, {**ROLES_AM1M2Y, "covariates": ["C1", "C2"]})
    command = ["bootstrap-report", "--data", data_path, "--roles", roles_path,
               "--method", "linear", "--log-m2", "--a", "1", "--aref", "0",
               "--m1star", "mean", "--m2star", "mean", "--cov", "C1=0,C2=1",
               "--boot", str(size.boot), "--seed", str(seed), "--format", "json"]
    # lstsq on the values as written, so the reference sees the CSV's digits
    want = _lstsq_tables(a, m1, np.log(m2), y, {"C1": c1, "C2": c2})

    def check(outs: list[str]) -> list[str]:
        problems: list[str] = []
        doc = _parse_report(outs[0], "bootstrap-report", problems)
        if doc is None:
            return problems
        _check_components(doc, "bootstrap-report", problems)
        _check_coefficients((doc.get("diagnostics") or {}).get("tables"), want, "fit", problems)
        return problems

    return Inputs([command], check)


def _simulate_fit_inputs(tmp: str, seed: int, size: Size) -> Inputs:
    levels = {"exposure": ["0", "1"], "m1": ["0", "1", "2"], "m2": ["0", "1", "2"],
              "treatment": "1", "reference": "0"}
    model = {
        "scenario": "seq2",
        "levels": levels,
        "pm1": {str(a): {str(j): p for j, p in enumerate(SEQ2_PM1[a])} for a in range(2)},
        "pm2": {str(a): {str(j): {str(k): p for k, p in enumerate(SEQ2_PM2[a][j])}
                         for j in range(3)} for a in range(2)},
        "ymean": {str(a): {str(j): {str(k): _ymean(a, j, k) for k in range(3)}
                           for j in range(3)} for a in range(2)},
    }
    model_path = os.path.join(tmp, "model.json")
    roles_path = os.path.join(tmp, "roles.json")
    sample_path = os.path.join(tmp, "sample.csv")
    _write_json(model_path, model)
    _write_json(roles_path, ROLES_AM1M2Y)
    commands = [
        ["simulate", "--model", model_path, "--n", str(size.n), "--seed", str(seed),
         "--out", sample_path],
        ["fit", "--data", sample_path, "--roles", roles_path],
        ["decompose", "--model", model_path, *QUERY_FLAGS, "--format", "json"],
    ]
    want_te = _triple_loop_te(model)
    # The sample is a pure function of the seed; it is parsed and refitted
    # with lstsq once per distinct file content.
    verified: dict[str, dict] = {}

    def sample_tables() -> tuple[dict | None, str | None]:
        with open(sample_path, "rb") as fh:
            blob = fh.read()
        digest = hashlib.sha256(blob).hexdigest()
        if digest not in verified:
            rows = blob.decode("utf-8").splitlines()
            if rows[0] != "A,M1,M2,Y":
                return None, f"sample header {rows[0]!r}"
            if len(rows) - 1 != size.n:
                return None, f"sample has {len(rows) - 1} rows, expected {size.n}"
            cols = np.loadtxt(rows[1:], delimiter=",", ndmin=2).T
            verified[digest] = _lstsq_tables(cols[0], cols[1], cols[2], cols[3], {})
        return verified[digest], None

    def check(outs: list[str]) -> list[str]:
        problems: list[str] = []
        sim = _parse_report(outs[0], "simulate", problems)
        if sim is not None and sim.get("rows") != size.n:
            problems.append(f"simulate: rows {sim.get('rows')}, expected {size.n}")
        want, err = sample_tables()
        if err:
            problems.append(f"simulate: {err}")
        fit = _parse_report(outs[1], "fit", problems)
        if fit is not None and want is not None:
            _check_coefficients(fit.get("tables"), want, "fit", problems)
        dec = _parse_report(outs[2], "decompose", problems)
        if dec is not None:
            _check_components(dec, "decompose", problems)
            _check_value(dec.get("te"), want_te, "decompose te", VALUE_TOL, problems)
        return problems

    return Inputs(commands, check, files=[sample_path])


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "plugin-seq2",
            "plug-in bootstrap dominated by re-tabulating cells (scm.from_dataset); "
            "seq2 pricing is the hand-written plugin_seq2",
            Size(n=5000, boot=400), Size(n=600, boot=20),
            lambda tmp, seed, size: _plugin_inputs(tmp, seed, size, sequential=True),
        ),
        Workload(
            "plugin-nonseq2",
            "plug-in bootstrap where pricing the catalog by enumeration "
            "(eval_expectation, check_identifiability per term) is about half the op",
            Size(n=1500, boot=400), Size(n=600, boot=20),
            lambda tmp, seed, size: _plugin_inputs(tmp, seed, size, sequential=False),
        ),
        Workload(
            "linear",
            "linear bootstrap dominated by three least-squares fits per replicate; "
            "no tabulation or catalog pricing",
            Size(n=5000, boot=200), Size(n=300, boot=20),
            _linear_inputs,
        ),
        Workload(
            "simulate-fit",
            "simulate 200k rows to CSV, fit from that CSV, decompose the model; "
            "ingest and CSV writing with no bootstrap",
            Size(n=200_000, boot=0), Size(n=2000, boot=0),
            _simulate_fit_inputs,
        ),
    )
}
