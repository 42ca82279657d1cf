"""The benchmark's layer trace (perfbench/tracer.py) still finds every
function it times, so a rename in the package cannot silently zero a
per-layer metric."""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import natfx.cli
import natfx.scm

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_trace_target_is_public_and_resolves():
    for span, module_name, name, method in _targets():
        module = importlib.import_module(module_name)
        assert name in module.__all__, span
        target = getattr(module, name)
        assert callable(target if method is None else getattr(target, method)), span


def test_cli_still_binds_from_dataset():
    # the tracer and the benchmark self-test look `from_dataset` up on natfx.cli
    assert natfx.cli.from_dataset is natfx.scm.from_dataset
