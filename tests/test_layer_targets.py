"""The benchmark's tracer wraps layer functions by dotted path; a renamed or
removed layer function must fail here, not only in the slow benchmark tests."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracer  # noqa: E402

TARGETS = sorted(
    set(tracer.SPAN_TARGETS.values())
    | {target for targets in tracer.CALL_TARGETS.values() for target in targets}
)


@pytest.mark.parametrize("module,path", TARGETS, ids=[f"{m}:{p}" for m, p in TARGETS])
def test_layer_target_resolves_to_a_callable(module, path):
    assert callable(tracer.resolve(module, path))
