#!/usr/bin/env python3
"""Recompute the GL2(F_q) dimension/multiplicity table from scratch.

Enumerates GL2 over the prime fields q = 2, 3, 5, extracts exact character
degree multisets, fits polynomial rows through them, and prints the table in
markdown, then spot-checks the fit against q = 7.
"""

from repzoo.characters import DegreeMultiset
from repzoo.groups import GroupScheme
from repzoo.harness import fit_polynomials, oracle_record, render_fit_markdown
from repzoo.localring import RingSpec


def main():
    scheme = GroupScheme("GL", 2)
    samples = {q: oracle_record(scheme, RingSpec.for_q(q, 1)) for q in (2, 3, 5)}
    for q, record in samples.items():
        print(f"dimirr(GL2(F_{q})) = {DegreeMultiset.from_json(record['degrees']).entries}")
    holdout = (7, oracle_record(scheme, RingSpec.for_q(7, 1)))
    report = fit_polynomials(scheme, 1, samples, holdout=holdout)
    print()
    print(render_fit_markdown(report))
    if not report.holdout_match:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
