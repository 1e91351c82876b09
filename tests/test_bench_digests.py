"""Every benchmark workload's commands, run in-process: a change to their
stdout must fail here, not only in the slow benchmark."""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import pytest

import repzoo.cli
from repzoo.harness import CACHE_ENV

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spec  # noqa: E402


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_benchmark_commands_match_their_digests(workload, tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "default-cache"))
    # chardeg_direct runs a cold pass that writes the cache and a warm replay that reads it
    for commands in spec.plan(workload, 0, str(tmp_path / "cache")):
        for key, argv in commands:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert repzoo.cli.main(argv) == 0
            assert hashlib.sha256(out.getvalue().encode()).hexdigest() == spec.DIGESTS[key], key
