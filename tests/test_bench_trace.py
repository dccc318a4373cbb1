"""The benchmark's tracer (``bench/trace.py``) wraps package entry points
by name, and ``bench/run.py --trace 1`` fails if one of them is gone. This
checks, without running the benchmark, that every name it wraps and every
field it reads still exists."""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE = Path(__file__).resolve().parent.parent / "bench" / "trace.py"


def _load_trace():
    # Not named "trace", which is a standard-library module.
    spec = importlib.util.spec_from_file_location("pcfdr_bench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPPED = _load_trace().WRAPPED


@pytest.mark.parametrize("module, attr, layer", WRAPPED, ids=[w[2] + ":" + w[1] for w in WRAPPED])
def test_wrapped_entry_point_exists(module, attr, layer):
    owner = importlib.import_module(f"pcfdr.{module}")
    for name in attr.split("."):
        owner = getattr(owner, name)
    assert callable(owner)


def test_rejection_set_counts_iterations():
    from pcfdr.procedures import RejectionSet

    assert "iterations" in {f.name for f in dataclasses.fields(RejectionSet)}
