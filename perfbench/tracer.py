"""Layer spans recorded from outside the natfx package.

`Tracer.install` replaces each traced public function with a timing wrapper
everywhere a natfx module binds it, so calls are caught where the caller
looks the name up (``natfx.cli.from_dataset``, ``natfx.scm.check_identifiability``
and so on), and methods on their class (``Dataset.take``, ``Report.render``).
Only names listed in the defining module's ``__all__`` are traced; a target
that is missing raises `TraceTargetMissing` instead of reporting zero.

Spans nest on one stack (the benchmark is single-threaded), so a span's
self time is its duration minus the durations of the spans it directly
encloses.  Totals are kept in memory per op.
"""
from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

# (span name, defining module, public name, method of that class or None)
TARGETS = (
    ("cli.main", "natfx.cli", "main", None),
    ("cli.load_dataset", "natfx.cli", "load_dataset", None),
    ("cli.render", "natfx.cli", "Report", "render"),
    ("infer.bootstrap", "natfx.infer", "bootstrap", None),
    ("scm.take", "natfx.scm", "Dataset", "take"),
    ("scm.from_dataset", "natfx.scm", "from_dataset", None),
    ("scm.eval_expectation", "natfx.scm", "eval_expectation", None),
    ("scm.simulate", "natfx.scm", "simulate", None),
    ("scm.load_model", "natfx.scm", "load_model", None),
    ("cfexpr.check_identifiability", "natfx.cfexpr", "check_identifiability", None),
    ("decomp.decompose", "natfx.decomp", "decompose", None),
    ("estimate.plugin_seq2", "natfx.estimate", "plugin_seq2", None),
    ("estimate.fit_linear_system", "natfx.estimate", "fit_linear_system", None),
    ("estimate.fit_ols", "natfx.estimate", "fit_ols", None),
    ("estimate.linear_components", "natfx.estimate", "linear_components", None),
)

# Per-layer metrics of one op: name -> unit.  ".s" is the inclusive time of
# a span per op, ".calls" its call count, "self_s" the span minus its
# children.
PER_LAYER_UNITS = {
    "scm.from_dataset.s": "s",
    "scm.from_dataset.calls": "count",
    "scm.take.s": "s",
    "scm.take.calls": "count",
    "scm.eval_expectation.s": "s",
    "scm.eval_expectation.calls": "count",
    "scm.eval_expectation.distinct_ratio": "ratio",
    "cfexpr.check_identifiability.s": "s",
    "cfexpr.check_identifiability.calls": "count",
    "decomp.decompose.s": "s",
    "decomp.self_s": "s",
    "estimate.plugin_seq2.s": "s",
    "estimate.fit_linear_system.s": "s",
    "estimate.fit_linear_system.calls": "count",
    "estimate.fit_ols.s": "s",
    "estimate.fit_ols.calls": "count",
    "estimate.linear_components.s": "s",
    "infer.bootstrap.s": "s",
    "infer.self_s": "s",
    "infer.replicates": "count",
    "infer.replicates_dropped": "count",
    "infer.kept_ratio": "ratio",
    "scm.simulate.s": "s",
    "scm.simulate.rows": "count",
    "scm.load_model.s": "s",
    "cli.load_dataset.s": "s",
    "cli.load_dataset.rows": "count",
    "cli.render.s": "s",
    "cli.self_s": "s",
    "proc.wall_s": "s",
    "proc.cpu_s": "s",
    "trace.overhead_frac": "ratio",
}


class TraceTargetMissing(LookupError):
    """A traced name is gone from its module or from the module's __all__."""


class Tracer:
    def __init__(self, targets=TARGETS):
        self._targets = targets
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # open spans as [name, child seconds]
        # span -> [calls, inclusive seconds, self seconds]
        self._stats: dict[str, list] = {t[0]: [0, 0.0, 0.0] for t in targets}
        self.reset()

    def reset(self) -> None:
        """Forget the totals; call between ops."""
        for stats in self._stats.values():
            stats[:] = [0, 0.0, 0.0]
        self.counts: Counter = Counter()
        self._stack.clear()
        self._priced: list[tuple] = []  # (model, formula, binding) per pricing call

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for span, module_name, public, method in self._targets:
                self._patch(span, module_name, public, method)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, span: str, module_name: str, public: str, method: str | None) -> None:
        module = importlib.import_module(module_name)
        if public not in getattr(module, "__all__", ()) or not hasattr(module, public):
            raise TraceTargetMissing(f"{module_name}.{public} is not a public name")
        obj = getattr(module, public)
        if method is not None:
            original = vars(obj).get(method)
            if not callable(original):
                raise TraceTargetMissing(f"{module_name}.{public}.{method} does not exist")
            self._set(obj, method, self._wrap(span, original))
            return
        wrapper = self._wrap(span, obj)
        for name, mod in list(sys.modules.items()):
            if name == "natfx" or name.startswith("natfx."):
                for attr, value in list(vars(mod).items()):
                    if value is obj:
                        self._set(mod, attr, wrapper)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, span: str, fn):
        before = getattr(self, "_before_" + span.replace(".", "_"), None)
        after = getattr(self, "_after_" + span.replace(".", "_"), None)
        stack = self._stack
        stats = self._stats[span]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            parent = stack[-1] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                # infer.bootstrap drops a replicate whose estimator raised;
                # counted here because the package does not report it
                if parent is not None and parent[0] == "infer.bootstrap":
                    self.counts["infer.replicates_dropped"] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
            if after is not None:
                after(result)
            return result

        return traced

    def _before_scm_eval_expectation(self, args, kwargs) -> None:
        # hashed after the op, outside the timed region; holding the model
        # keeps its id unique until then
        binding = args[2] if len(args) > 2 else kwargs.get("binding")
        self._priced.append((args[0], args[1], binding))

    def _before_infer_bootstrap(self, args, kwargs) -> None:
        cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
        if cfg is None:
            from natfx.infer import BootstrapConfig

            cfg = BootstrapConfig()
        self.counts["infer.replicates"] += cfg.replicates

    def _after_scm_simulate(self, result) -> None:
        self.counts["scm.simulate.rows"] += result.n

    def _after_cli_load_dataset(self, result) -> None:
        self.counts["cli.load_dataset.rows"] += result.n

    # -- per-op metrics --------------------------------------------------------

    def op_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the op traced since the last `reset`.

        ``proc.wall_s``, ``proc.cpu_s`` and ``trace.overhead_frac`` come from
        untraced ops and are filled in by the caller.
        """
        out: dict[str, float] = {}
        for name in PER_LAYER_UNITS:
            if name.endswith(".s") and name[:-2] in self._stats:
                out[name] = self._stats[name[:-2]][1]
            elif name.endswith(".calls"):
                out[name] = float(self._stats[name[:-6]][0])
        for name in ("infer.replicates", "infer.replicates_dropped",
                     "scm.simulate.rows", "cli.load_dataset.rows"):
            out[name] = float(self.counts[name])
        out["decomp.self_s"] = self._stats["decomp.decompose"][2]
        out["infer.self_s"] = self._stats["infer.bootstrap"][2]
        out["cli.self_s"] = self._stats["cli.main"][2]
        # distinct (model, formula, binding) triples per pricing call: the
        # share of pricing work left if each formula were priced once per model
        distinct = {(id(m), e, tuple(sorted((b or {}).items()))) for m, e, b in self._priced}
        out["scm.eval_expectation.distinct_ratio"] = (
            len(distinct) / len(self._priced) if self._priced else 0.0
        )
        replicates = self.counts["infer.replicates"]
        dropped = self.counts["infer.replicates_dropped"]
        out["infer.kept_ratio"] = (replicates - dropped) / replicates if replicates else 0.0
        return out
