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
import io
import json
import os
import sys
import warnings
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

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
from .scm import simulate as simulate_model

__all__ = [
    "Report",
    "build_parser",
    "load_dataset",
    "load_roles",
    "main",
    "run",
]

_ROLE_KEYS = ("exposure", "m1", "m2", "outcome")


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
            body = {k: v for k, v in doc.items() if k not in ("subcommand", "provenance")}
            lines.extend(_diagnostic_lines(body, title="fit"))
        else:
            lines.extend(_kv_lines({k: v for k, v in doc.items() if k != "subcommand"}))
        if "assumptions" in doc:
            lines.append("")
            lines.extend(_ledger_lines(doc["assumptions"]))
        if "diagnostics" in doc:
            lines.append("")
            lines.extend(_diagnostic_lines(doc["diagnostics"]))
        if "provenance" in doc:
            lines.append("")
            lines.append("provenance: " + json.dumps(doc["provenance"], allow_nan=False))
        return "\n".join(lines)


def _kv_lines(doc: Mapping[str, Any]) -> list[str]:
    lines = []
    for key, value in doc.items():
        if isinstance(value, (Mapping, list)):
            lines.append(f"{key}: {json.dumps(value, allow_nan=False)}")
        else:
            lines.append(f"{key}: {value}")
    return lines


def _component_lines(doc: Mapping[str, Any]) -> list[str]:
    rows = doc["components"]
    name_w = max(len("Component"), *(len(r["name"]) for r in rows))
    have_ci = any(r["ci"] is not None for r in rows)
    header = f"{'Component':<{name_w}}  {'Estimate':>10}"
    if have_ci:
        header += f"  {'95% C.I.':>22}"
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


def _loadtxt(body: bytes, usecols: Sequence[int], dtypes: Sequence[Any]) -> np.ndarray | None:
    """The `usecols` fields of comma-separated ASCII lines as one record
    array, field ``f{i}`` of dtype ``dtypes[i]``, skipping empty lines; None
    where numpy rejects the text or warns (numpy 1.x warns when it reads
    ``1.0`` as an integer)."""
    dtype = np.dtype([(f"f{i}", dt) for i, dt in enumerate(dtypes)])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(io.BytesIO(body), dtype=dtype, delimiter=",", comments=None,
                              usecols=usecols, ndmin=1, encoding="ascii")
    except (ValueError, Warning):
        return None


def _loadtxt_columns(path: str, names: Sequence[str]) -> dict[str, np.ndarray] | None:
    """The named columns of a headered CSV read by `np.loadtxt`, or None for
    text this reader cannot vouch for, which `_csv_columns` reads instead.

    It vouches only for ASCII text that holds no quote, carriage return or
    NUL (which the csv module of Python 3.10 rejects), whose lines all fit
    the csv field size limit, whose non-empty lines all have the header's
    field count, and whose named columns each read whole at the type their
    first row suggests: int64 where that cell reads as an integer, else
    float.  The csv reader gives ints only when every cell is one, so a
    column whose first cell is not stays float there too; an int64 read
    fails on any other cell, an integer beyond int64 included.  On ASCII,
    numpy rejects some spellings that `int` and `float` accept (``1_000``,
    a blank field), never the reverse, so a failed read means None; beyond
    ASCII its integer reader takes some letters for digits (U+196E reads as
    6462).  On the text it accepts, the columns equal the csv reader's in
    value and dtype, with no row dropped.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.isascii() or b'"' in raw or b"\r" in raw or b"\0" in raw:
        return None
    buf = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    if not raw.endswith(b"\n"):
        ends = np.append(ends, len(raw))
    widths = np.diff(ends, prepend=-1) - 1
    commas = np.diff(np.searchsorted(np.flatnonzero(buf == ord(",")), ends), prepend=0)
    rows = widths[1:] > 0
    if not rows.any() or widths.max() > csv.field_size_limit():
        return None
    header = raw[: ends[0]].decode("ascii")
    fields = header.split(",") if header else []
    if not set(names) <= set(fields) or (commas[1:][rows] != len(fields) - 1).any():
        return None
    usecols = [fields.index(name) for name in names]
    first = int(np.argmax(rows)) + 1
    cells = raw[ends[first - 1] + 1 : ends[first]].decode("ascii").split(",")
    body = raw[ends[0] + 1 :]
    guess = [np.int64 if isinstance(_parse_level(cells[j].strip()), int) else float
             for j in usecols]
    table = _loadtxt(body, usecols, guess)
    if table is None:
        return None
    columns = [table[field] for field in table.dtype.names]
    if any(len(column) != np.count_nonzero(rows) for column in columns):
        return None
    return {name: np.ascontiguousarray(column) for name, column in zip(names, columns)}


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
    columns may stay categorical strings.  Plain numeric text is read by
    `np.loadtxt` (`_loadtxt_columns`); any other text, and every error, goes
    through the csv module (`_csv_columns`), and both give the same dataset.
    """
    cov_names = list(roles.get("covariates", []))
    bound = {role: roles[role] for role in _ROLE_KEYS if roles.get(role)}
    names = list(bound.values()) + cov_names
    fast = _loadtxt_columns(path, names)
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


def _run_simulate(args: argparse.Namespace) -> tuple[Report, int]:
    model = load_model(args.model)
    seed = _resolve_seed(args.seed)
    data = simulate_model(model, args.n, seed, noise_sd=args.noise_sd)
    levels = [data.exposure, data.m1] + ([data.m2] if data.m2 is not None else [])
    columns = ["A", "M1", "M2"][: len(levels)] + ["Y"]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(zip(*(c.tolist() for c in levels), map(repr, data.outcome.tolist())))
    text = buffer.getvalue()
    if args.out is None:
        return Report("simulate", {}, raw=text.rstrip("\n")), 0
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    body = {
        "rows": data.n,
        "columns": columns,
        "seed": seed,
        "noise_sd": args.noise_sd,
        "out": args.out,
    }
    return Report("simulate", body), 0


def _run_decompose(args: argparse.Namespace) -> tuple[Report, int]:
    model = load_model(args.model)
    if args.scenario is not None and args.scenario != model.scenario.id:
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
    roles = load_roles(args.roles)
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
        "transforms": {"m2": "log"} if args.log_m2 and args.method == "linear" else {},
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


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
