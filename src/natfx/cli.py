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
import dataclasses
import io
import json
import os
import sys
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
from .infer import BootstrapConfig, PluginEstimator, bootstrap
# from_dataset stays bound here: perfbench's tracer and selftest look it up on this module
from .scm import Dataset, NotIdentifiable, eval_expectation, from_dataset, load_model  # noqa: F401
from .scm import simulate as simulate_model

__all__ = [
    "Report",
    "RunConfig",
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
# configuration and report containers


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation, fully resolved from flags and defaults."""

    subcommand: str
    scenario: str | None = None
    formula: str | None = None
    model: str | None = None
    params: str | None = None
    data: str | None = None
    roles: str | None = None
    out: str | None = None
    a: str | None = None
    aref: str | None = None
    m1star: str | None = None
    m2star: str | None = None
    cov: str | None = None
    log_m2: bool = False
    extended: bool = False
    ack_assumptions: bool = False
    method: str = "plugin"
    n: int | None = None
    noise_sd: float = 1.0
    boot: int = 1000
    level: float = 0.95
    seed: int | None = None
    max_fail: float = 0.01
    workers: int = 1
    format: str = "table"


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
            return json.dumps(self.as_dict(), indent=2)
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
            lines.append("provenance: " + json.dumps(doc["provenance"]))
        return "\n".join(lines)


def _kv_lines(doc: Mapping[str, Any]) -> list[str]:
    lines = []
    for key, value in doc.items():
        if isinstance(value, (Mapping, list)):
            lines.append(f"{key}: {json.dumps(value)}")
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


def load_dataset(path: str, roles: Mapping[str, Any]) -> Dataset:
    """Read a headered CSV under the role bindings.

    Quoting follows the csv module's defaults; an empty bound field marks
    the row missing and listwise deletion drops it, counted in the result.
    Outcome and covariate columns must be numeric; exposure and mediator
    columns may stay categorical strings.
    """
    cov_names = list(roles.get("covariates", []))
    bound = {role: roles[role] for role in _ROLE_KEYS if roles.get(role)}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file has no header row") from None
        except csv.Error as err:
            raise ValueError(f"{path}: line 1: {err}") from None
        index: dict[str, int] = {}
        for column in list(bound.values()) + cov_names:
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
    if explicit is not None:
        return explicit
    raw = os.environ.get("NATFX_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"NATFX_SEED must be an integer, got {raw!r}") from None


def _query_from(config: RunConfig) -> Query:
    return Query(
        a=_parse_level(config.a),
        a_star=_parse_level(config.aref),
        m1_star=_parse_level(config.m1star),
        m2_star=_parse_level(config.m2star),
    )


def _query_echo(q: Query) -> dict:
    return {"a": q.a, "a*": q.a_star, "m1*": q.m1_star, "m2*": q.m2_star}


# ---------------------------------------------------------------------------
# subcommands


def _run_check(config: RunConfig) -> tuple[Report, int]:
    scenario = Scenario.from_id(config.scenario)
    expr = parse_cf(config.formula, scenario)
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


def _run_eval(config: RunConfig) -> tuple[Report, int]:
    model = load_model(config.model)
    expr = parse_cf(config.formula, model.scenario)
    binding = {
        symbol: _parse_level(raw)
        for symbol, raw in (
            ("a", config.a),
            ("a*", config.aref),
            ("m1*", config.m1star),
            ("m2*", config.m2star),
        )
        if raw is not None
    }
    value = eval_expectation(model, expr, binding)
    body = {
        "formula": format_cf(expr),
        "scenario": model.scenario.id,
        "binding": binding,
        "value": value,
    }
    return Report("eval", body), 0


def _run_simulate(config: RunConfig) -> tuple[Report, int]:
    model = load_model(config.model)
    seed = _resolve_seed(config.seed)
    data = simulate_model(model, config.n, seed, noise_sd=config.noise_sd)
    columns = ["A", "M1"] + (["M2"] if data.m2 is not None else []) + ["Y"]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for i in range(data.n):
        row = [data.exposure[i], data.m1[i]]
        if data.m2 is not None:
            row.append(data.m2[i])
        row.append(repr(float(data.outcome[i])))
        writer.writerow(row)
    text = buffer.getvalue()
    if config.out is None:
        return Report("simulate", {}, raw=text.rstrip("\n")), 0
    with open(config.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    body = {
        "rows": data.n,
        "columns": columns,
        "seed": seed,
        "noise_sd": config.noise_sd,
        "out": config.out,
    }
    return Report("simulate", body), 0


def _run_decompose(config: RunConfig) -> tuple[Report, int]:
    model = load_model(config.model)
    if config.scenario is not None and config.scenario != model.scenario.id:
        raise ValueError(
            f"--scenario {config.scenario} does not match the model file's "
            f"scenario {model.scenario.id}"
        )
    q = _query_from(config)
    result = decompose(model, q, extended=config.extended)
    ledger = AssumptionLedger.for_scenario(model.scenario, config.ack_assumptions)
    provenance = {
        "model": config.model,
        "scenario": model.scenario.id,
        "query": _query_echo(q),
        "extended": config.extended,
    }
    report = Report(
        "decompose",
        {"scenario": model.scenario.id},
        result=result,
        ledger=ledger,
        provenance=provenance,
    )
    return report, 0


def _run_fit(config: RunConfig) -> tuple[Report, int]:
    roles = load_roles(config.roles)
    data = load_dataset(config.data, roles)
    transforms = {"m2": "log"} if config.log_m2 else None
    fit = fit_linear_system(data, transforms=transforms)
    body = fit.to_dict()
    provenance = {
        "data": config.data,
        "roles": dict(roles),
        "transforms": {"m2": "log"} if config.log_m2 else {},
    }
    return Report("fit", body, provenance=provenance), 0


def _load_params_document(path: str) -> tuple[LinearParams, dict]:
    """Accept either a bare parameter object or a full fit document."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if "params" in doc:
        return LinearParams.from_dict(doc["params"]), doc
    return LinearParams.from_dict(doc), {}


def _resolve_star(raw: str | None, role: str, fitdoc: Mapping[str, Any]) -> Any:
    if raw != "mean":
        return _parse_level(raw)
    means = fitdoc.get("sample_means")
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


def _run_decompose_linear(config: RunConfig) -> tuple[Report, int]:
    params, fitdoc = _load_params_document(config.params)
    q = Query(
        a=_parse_level(config.a),
        a_star=_parse_level(config.aref),
        m1_star=_resolve_star(config.m1star, "m1", fitdoc),
        m2_star=_resolve_star(config.m2star, "m2", fitdoc),
    )
    names = fitdoc.get("covariates")
    profile = _align_profile(
        _parse_profile(config.cov) if config.cov else None,
        names,
        params.n_covariates,
    )
    result = linear_components(params, q, profile)
    ledger = AssumptionLedger.for_scenario(Scenario.chain(2), config.ack_assumptions)
    diagnostics: dict[str, Any] = {"sigma2_m1": params.sigma2_m1}
    for key in ("sigma2_y", "sigma2_m2", "n_used", "n_dropped"):
        if key in fitdoc:
            diagnostics[key] = fitdoc[key]
    provenance = {
        "params": config.params,
        "query": _query_echo(q),
        "covariate_profile": (
            dict(zip(profile.names, profile.values))
            if profile is not None and profile.names
            else (list(profile.values) if profile is not None else {})
        ),
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


def _run_bootstrap_report(config: RunConfig) -> tuple[Report, int]:
    roles = load_roles(config.roles)
    data = load_dataset(config.data, roles)
    seed = _resolve_seed(config.seed)
    cfg = BootstrapConfig(
        replicates=config.boot,
        level=config.level,
        seed=seed,
        max_fail=config.max_fail,
    )
    diagnostics: dict[str, Any] = {}

    if config.method == "linear":
        transforms = {"m2": "log"} if config.log_m2 else None
        full = fit_linear_system(data, transforms=transforms)
        q = Query(
            a=_parse_level(config.a),
            a_star=_parse_level(config.aref),
            m1_star=_resolve_star(config.m1star, "m1", full.to_dict()),
            m2_star=_resolve_star(config.m2star, "m2", full.to_dict()),
        )
        profile = _align_profile(
            _parse_profile(config.cov) if config.cov else None,
            full.covariate_names,
            full.params.n_covariates,
        )

        def estimator(d: Dataset) -> DecompositionResult:
            fit = fit_linear_system(d, transforms=transforms)
            return linear_components(fit.params, q, profile)

        scenario = Scenario.chain(2)
        diagnostics = {
            "sigma2_m1": full.params.sigma2_m1,
            "sigma2_y": full.sigma2_y,
            "sigma2_m2": full.sigma2_m2,
            "n_used": full.n_used,
            "n_dropped": full.n_dropped,
            "tables": full.tables,
        }
    else:
        scenario = Scenario.from_id(config.scenario) if config.scenario else (
            Scenario.chain(2) if data.m2 is not None else Scenario.single()
        )
        q = _query_from(config)
        estimator = PluginEstimator(scenario, q)
        diagnostics = {"n_used": data.n, "n_dropped": data.n_dropped}

    result = bootstrap(data, estimator, cfg, workers=config.workers)
    diagnostics["replicates"] = result.diagnostics
    ledger = AssumptionLedger.for_scenario(scenario, config.ack_assumptions)
    provenance = {
        "data": config.data,
        "roles": dict(roles),
        "method": config.method,
        "scenario": scenario.id,
        "query": _query_echo(q),
        "transforms": {"m2": "log"} if config.log_m2 and config.method == "linear" else {},
        "seed": seed,
        "replicates": cfg.replicates,
        "level": cfg.level,
        "max_fail": cfg.max_fail,
        "workers": config.workers,
    }
    if config.method == "linear" and config.cov:
        provenance["covariate_profile"] = _parse_profile(config.cov)
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


def run(config: RunConfig) -> tuple[Report, int]:
    """Route a resolved configuration; identifiability errors bubble up."""
    return _DISPATCH[config.subcommand](config)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; 2 is reserved for
    # identifiability rejection here, so usage errors exit 1
    def error(self, message: str):  # noqa: D102
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_query_flags(p: argparse.ArgumentParser, stars: bool = True) -> None:
    p.add_argument("--a", required=True, help="treatment exposure level")
    p.add_argument("--aref", required=True, help="reference exposure level")
    if stars:
        p.add_argument("--m1star", help="fixed M1 reference level (or 'mean')")
        p.add_argument("--m2star", help="fixed M2 reference level (or 'mean')")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="natfx", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("check", help="identifiability verdict for a formula")
    p.add_argument("--scenario", required=True, help="single, nonseq2, or seq2")
    p.add_argument("formula", help="counterfactual formula, e.g. 'Y(a, M1(a*))'")
    p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("eval", help="expectation of a formula on a model file")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("formula")
    p.add_argument("--a", help="level bound to the symbol a")
    p.add_argument("--aref", help="level bound to the symbol a*")
    p.add_argument("--m1star", help="level bound to m1-fixing symbols")
    p.add_argument("--m2star", help="level bound to m2-fixing symbols")
    p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("simulate", help="draw a CSV sample from a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--noise-sd", type=float, default=1.0, dest="noise_sd")
    p.add_argument("--out", help="CSV destination (stdout when omitted)")
    p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("decompose", help="exact decomposition of a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--scenario", help="assert the model file's scenario")
    _add_query_flags(p)
    p.add_argument("--extended", action="store_true", help="append TDE and SIE_M1")
    p.add_argument("--ack-assumptions", action="store_true", dest="ack_assumptions")
    p.add_argument("--format", choices=("json", "table"), default="table")

    p = sub.add_parser("fit", help="three-equation least squares on a CSV")
    p.add_argument("--data", required=True, help="CSV path")
    p.add_argument("--roles", required=True, help="roles JSON path")
    p.add_argument("--log-m2", action="store_true", dest="log_m2")
    p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser(
        "decompose-linear", help="closed-form decomposition from fitted parameters"
    )
    p.add_argument("--params", required=True, help="parameter or fit JSON path")
    _add_query_flags(p)
    p.add_argument("--cov", help="covariate profile, e.g. sex=1,age=48.3")
    p.add_argument("--ack-assumptions", action="store_true", dest="ack_assumptions")
    p.add_argument("--format", choices=("json", "table"), default="table")

    p = sub.add_parser(
        "bootstrap-report", help="decomposition with percentile bootstrap intervals"
    )
    p.add_argument("--data", required=True)
    p.add_argument("--roles", required=True)
    p.add_argument("--method", choices=("plugin", "linear"), default="plugin")
    p.add_argument("--scenario", help="plug-in scenario (default from the roles)")
    _add_query_flags(p)
    p.add_argument("--cov", help="covariate profile for the linear method")
    p.add_argument("--log-m2", action="store_true", dest="log_m2")
    p.add_argument("--boot", type=int, default=1000, help="bootstrap replicates")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--seed", type=int, help="master seed (NATFX_SEED, then 0)")
    p.add_argument("--max-fail", type=float, default=0.01, dest="max_fail")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--ack-assumptions", action="store_true", dest="ack_assumptions")
    p.add_argument("--format", choices=("json", "table"), default="table")

    return parser


def config_from_args(argv: Sequence[str] | None = None) -> RunConfig:
    ns = build_parser().parse_args(argv)
    kwargs = {
        f.name: getattr(ns, f.name)
        for f in dataclasses.fields(RunConfig)
        if hasattr(ns, f.name)
    }
    return RunConfig(**kwargs)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        config = config_from_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        report, code = run(config)
    except (NotIdentifiable, EvaluationOfProblematicSpec) as err:
        print(f"natfx: {err}", file=sys.stderr)
        return 2
    except KeyError as err:
        print(f"natfx: error: input document is missing key {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError, RuntimeError) as err:
        print(f"natfx: error: {err}", file=sys.stderr)
        return 1
    text = report.render(config.format)
    if text:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
