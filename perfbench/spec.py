"""What the benchmark runs, what its outputs must hash to, and what each layer
metric is expected to move.

Every command is an argv for ``repzoo.cli.main``.  Inputs are fixed exact
objects; the seed only permutes the order of independent calls, and each
command's stdout must hash to the same reference digest under every seed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# sha256 of each command's stdout, recorded from the library as it was when the
# benchmark was defined; identical under PYTHONHASHSEED 0 and 123 and under any
# order of --samples.
DIGESTS = {
    "fit GL2 level 2": "7a80b40ad1e0dcffa978c0238852bb0fa0f4b132deefec8a822290417e208fce",
    "dimirr GL3:unram:3,1,1": "f0b619f38752ffdd45b3b8e88c9a086db03c52eabb74febedd9ce65de9f84e34",
    "dimirr GL2:unram:13,1,1": "e1634383ff37d3ace6d0095e732d9a1969931f542e4b2dda42647dff7d281b3e",
    "lietype GL3 split": "9ce9a0ac1aa3e050b2d8a30b538630e6116991139d9a7532b3df2ce90bc2271f",
}

# the workloads, why each was chosen, and every metric's unit and bound
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

# Layer metric -> the (end-to-end metric, workload) pairs it should move, and
# the workloads on which it must read exactly zero (the bypass claims).  Each
# metric must be non-zero on every workload it is said to move.
LAYERS = {
    "localring.make_ring.self_s": {
        "moves": [("wall_s", "level2_fit"), ("wall_s", "chardeg_direct")],
        "zero_on": ["lietype_gl3"],
    },
    "groups.build_group.self_s": {
        "moves": [("wall_s", "level2_fit"), ("peak_rss_mb", "level2_fit")],
        "zero_on": ["lietype_gl3"],
    },
    "groups.generators.self_s": {"moves": [("wall_s", "level2_fit")], "zero_on": ["lietype_gl3"]},
    "groups.congruence_kernel.self_s": {
        "moves": [("wall_s", "level2_fit")],
        "zero_on": ["chardeg_direct", "lietype_gl3"],
    },
    "groups.QuotientGroup.self_s": {
        "moves": [("wall_s", "level2_fit")],
        "zero_on": ["chardeg_direct", "lietype_gl3"],
    },
    "groups.conjugacy_classes.self_s": {
        "moves": [("wall_s", "chardeg_direct")],
        "zero_on": ["lietype_gl3"],
    },
    "groups.mul.calls": {
        "moves": [("wall_s", "level2_fit"), ("wall_s", "chardeg_direct")],
        "zero_on": ["lietype_gl3"],
    },
    "groups.elements": {"moves": [], "zero_on": ["lietype_gl3"]},
    "characters.character_table_modp.self_s": {
        "moves": [("wall_s", "chardeg_direct"), ("wall_s", "level2_fit")],
        "zero_on": ["lietype_gl3"],
    },
    "characters.character_table_modp.calls": {
        "moves": [("wall_s", "chardeg_direct")],
        "zero_on": ["lietype_gl3"],
    },
    "characters.classes": {"moves": [], "zero_on": ["lietype_gl3"]},
    "clifford.DualGroup.self_s": {
        "moves": [("wall_s", "level2_fit")],
        "zero_on": ["chardeg_direct", "lietype_gl3"],
    },
    "clifford.orbits_and_stabilizers.self_s": {
        "moves": [("wall_s", "level2_fit")],
        "zero_on": ["chardeg_direct", "lietype_gl3"],
    },
    "clifford.clifford_dimirr.self_s": {
        "moves": [("wall_s", "level2_fit")],
        "zero_on": ["chardeg_direct", "lietype_gl3"],
    },
    "clifford.orbits": {"moves": [], "zero_on": ["chardeg_direct", "lietype_gl3"]},
    "lietype.candidate_set.self_s": {
        "moves": [("wall_s", "lietype_gl3")],
        "zero_on": ["level2_fit", "chardeg_direct"],
    },
    "lietype.candidates": {"moves": [], "zero_on": ["level2_fit", "chardeg_direct"]},
    # the level-2 fit's order polynomials and interpolation also make about a
    # thousand of these calls on level2_fit
    "polynomials.ops.calls": {"moves": [("wall_s", "lietype_gl3")], "zero_on": []},
    "harness.fit_polynomials.self_s": {
        "moves": [],  # about 0.03 s on level2_fit: the prediction is no movement
        "zero_on": ["chardeg_direct", "lietype_gl3"],
    },
    "harness.run_dimirr.self_s": {
        "moves": [("wall_s", "chardeg_direct")],
        "zero_on": ["level2_fit", "lietype_gl3"],
    },
    "harness.cache_files_cold": {"moves": [], "zero_on": ["level2_fit", "lietype_gl3"]},
    "harness.cache_files_warm": {"moves": [], "zero_on": ["level2_fit", "chardeg_direct", "lietype_gl3"]},
    "cli.main.self_s": {"moves": [("wall_s", "lietype_gl3")], "zero_on": []},
    "trace.overhead_frac": {"moves": [], "zero_on": []},
    "trace.coverage": {"moves": [], "zero_on": []},
}

_DIMIRR = {
    "dimirr GL3:unram:3,1,1": ("GL3", "unram:3,1,1"),
    "dimirr GL2:unram:13,1,1": ("GL2", "unram:13,1,1"),
}


def plan(workload: str, seed: int, cache_dir: str) -> list[list[tuple[str, list[str]]]]:
    """Passes of (digest key, argv) for one rep; the passes run in order."""
    rng = random.Random(seed)
    if workload == "level2_fit":
        samples = ["2", "3", "4"]
        rng.shuffle(samples)
        argv = ["fit", "--scheme", "GL2", "--level", "2",
                "--samples", ",".join(samples), "--holdout", "5"]
        return [[("fit GL2 level 2", argv)]]
    if workload == "chardeg_direct":
        keys = sorted(_DIMIRR)
        rng.shuffle(keys)
        cold = [
            (key, ["--cache-dir", cache_dir, "dimirr", "--engine", "chardeg",
                   "--scheme", _DIMIRR[key][0], "--ring", _DIMIRR[key][1]])
            for key in keys
        ]
        return [cold, list(cold)]
    if workload == "lietype_gl3":
        return [[("lietype GL3 split", ["lietype", "--family", "GL3", "--twist", "split"])]]
    raise ValueError(f"unknown workload {workload!r}")
