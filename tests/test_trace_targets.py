"""Every layer the benchmark's tracer wraps still exists under its name."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


@pytest.mark.parametrize(
    "module, attr, span", load_targets(), ids=lambda v: str(v)
)
def test_trace_target_exists(module, attr, span):
    mod = importlib.import_module(module)
    assert callable(getattr(mod, attr, None)), (
        f"{module}.{attr} (span {span!r}) is wrapped by the benchmark tracer"
    )
