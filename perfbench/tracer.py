"""Spans and counters around repzoo's layer functions, installed from outside.

Modules bind layer functions with ``from .groups import build_group``, so a
wrapper must replace the object under every name that holds it: the globals of
every loaded repzoo module and the attributes of every repzoo class.  Methods
and constructors are wrapped on their class, which every binding shares.

Two installers, never both in one process:

* ``SpanRecorder`` times the coarse layer calls (self time is span time minus
  the child spans inside it).
* ``Counter`` counts per-element calls and the sizes of what the layers built.
  Wrapping ``FiniteMatrixGroup.mul`` or ``RationalPoly`` operators would
  distort span times, so counts come from a run of their own.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# span name -> (module, attribute path)
SPAN_TARGETS = {
    "cli.main": ("repzoo.cli", "main"),
    "localring.make_ring": ("repzoo.localring", "make_ring"),
    "groups.build_group": ("repzoo.groups", "build_group"),
    "groups.generators": ("repzoo.groups", "FiniteGroup.generators"),
    "groups.congruence_kernel": ("repzoo.groups", "congruence_kernel"),
    "groups.QuotientGroup": ("repzoo.groups", "QuotientGroup.__init__"),
    "groups.conjugacy_classes": ("repzoo.groups", "conjugacy_classes"),
    "characters.character_table_modp": ("repzoo.characters", "character_table_modp"),
    "characters.character_degrees": ("repzoo.characters", "character_degrees"),
    "clifford.DualGroup": ("repzoo.clifford", "DualGroup.__init__"),
    "clifford.orbits_and_stabilizers": ("repzoo.clifford", "orbits_and_stabilizers"),
    "clifford.clifford_dimirr": ("repzoo.clifford", "clifford_dimirr"),
    "clifford.default_normal_subgroup": ("repzoo.clifford", "default_normal_subgroup"),
    "lietype.root_datum": ("repzoo.lietype", "root_datum"),
    "lietype.candidate_set": ("repzoo.lietype", "candidate_set"),
    "harness.compute_degrees": ("repzoo.harness", "compute_degrees"),
    "harness.compute_clifford_report": ("repzoo.harness", "compute_clifford_report"),
    "harness.fit_polynomials": ("repzoo.harness", "fit_polynomials"),
    "harness.run_dimirr": ("repzoo.harness", "run_dimirr"),
}

# counter name -> the callables whose calls it counts
CALL_TARGETS = {
    "groups.mul": [("repzoo.groups", "FiniteMatrixGroup.mul")],
    "polynomials.ops": [
        ("repzoo.polynomials", "RationalPoly.__add__"),
        ("repzoo.polynomials", "RationalPoly.__mul__"),
        ("repzoo.polynomials", "RationalPoly.__call__"),
    ],
    "characters.character_table_modp": [("repzoo.characters", "character_table_modp")],
}


def resolve(module: str, path: str):
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def rebind(orig, repl) -> int:
    """Replace ``orig`` by ``repl`` under every repzoo module global and class
    attribute that holds it; returns the number of bindings replaced."""
    replaced = 0
    seen: set[int] = set()
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repzoo" or name.startswith("repzoo.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, repl)
                replaced += 1
            elif isinstance(val, type) and val.__module__.startswith("repzoo") and id(val) not in seen:
                seen.add(id(val))
                for cattr, cval in list(vars(val).items()):
                    if cval is orig:
                        setattr(val, cattr, repl)
                        replaced += 1
    if not replaced:
        raise LookupError(f"no repzoo binding holds {orig!r}")
    return replaced


class SpanRecorder:
    """Per-name call count, total and self nanoseconds, and the time covered by
    the direct children of ``cli.main``."""

    ROOT = "cli.main"

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.covered_ns = 0
        self._stack: list[list] = []  # [name, start_ns, child_ns]

    def install(self) -> None:
        for name, (module, path) in SPAN_TARGETS.items():
            orig = resolve(module, path)
            rebind(orig, self._wrap(name, orig))

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            stack.append([name, clock(), 0])
            try:
                return fn(*args, **kwargs)
            finally:
                _, start, child = stack.pop()
                dur = clock() - start
                self.calls[name] += 1
                self.total_ns[name] += dur
                self.self_ns[name] += dur - child
                if stack:
                    stack[-1][2] += dur
                    if stack[-1][0] == self.ROOT:
                        self.covered_ns += dur

        span.__wrapped__ = fn
        return span

    def report(self) -> dict:
        return {
            name: {
                "calls": self.calls[name],
                "total_s": self.total_ns[name] / 1e9,
                "self_s": self.self_ns[name] / 1e9,
            }
            for name in sorted(self.calls)
        } | {"_covered_s": self.covered_ns / 1e9}


class Counter:
    """Exact counts: calls of per-element methods, and what the layers built.

    Memoized layers return the same object again on a hit, so sizes are summed
    over distinct returned objects, which is what was actually built.
    """

    def __init__(self):
        self.counts: dict[str, int] = defaultdict(int)
        # what was built: group orders, [|G|, classes] per table, [|G|, irreducibles] per report
        self.built: dict[str, list] = {"groups": [], "tables": [], "clifford": []}
        self._seen: set[int] = set()
        self._keep: list = []  # holds counted objects so their ids stay unique

    def install(self) -> None:
        for name, targets in CALL_TARGETS.items():
            for module, path in targets:
                orig = resolve(module, path)
                rebind(orig, self._counting(name, orig))
        self._observe("repzoo.groups", "build_group", self._on_group)
        self._observe("repzoo.characters", "character_table_modp", self._on_table)
        self._observe("repzoo.clifford", "orbits_and_stabilizers", self._on_orbits)
        self._observe("repzoo.clifford", "clifford_dimirr", self._on_clifford)
        self._observe("repzoo.lietype", "candidate_set", self._on_candidates)

    def _counting(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _observe(self, module: str, path: str, hook) -> None:
        orig = resolve(module, path)

        def observed(*args, **kwargs):
            out = orig(*args, **kwargs)
            if id(out) not in self._seen:
                self._seen.add(id(out))
                self._keep.append(out)
                hook(args, out)
            return out

        observed.__wrapped__ = orig
        rebind(orig, observed)

    def _on_group(self, args, group) -> None:
        self.counts["groups.elements"] += group.order
        self.built["groups"].append(group.order)

    def _on_table(self, args, table) -> None:
        self.counts["characters.classes"] += table.classes.n_classes
        self.built["tables"].append([args[0].order, table.classes.n_classes])

    def _on_orbits(self, args, records) -> None:
        self.counts["clifford.orbits"] += len(records)

    def _on_clifford(self, args, report) -> None:
        self.built["clifford"].append([args[0].order, report.degrees.total_count])

    def _on_candidates(self, args, cands) -> None:
        self.counts["lietype.candidates"] += len(cands.polynomials)

    def report(self) -> dict:
        return {
            "counts": dict(sorted(self.counts.items())),
            "built": {kind: sorted(items) for kind, items in self.built.items()},
        }
