#!/usr/bin/env python3
"""Level-2 experiment: fit dimension rows of GL2(o/p^2) and predict GL2(Z/25).

Samples q = 2, 3, 4 (rings Z/4, Z/9, GR(4,2)) through the Clifford engine,
fits the (d_i, m_i) rows from the stratified orbit data, and checks the
prediction against the 300000-element group GL2(Z/25), which only the
Clifford engine can reach at reasonable cost.
"""

import time

from repzoo.groups import GroupScheme
from repzoo.harness import fit_polynomials, oracle_record, render_fit_markdown
from repzoo.localring import RingSpec


def main():
    scheme = GroupScheme("GL", 2)
    records = {}
    for q in (2, 3, 4, 5):
        spec = RingSpec.for_q(q, 2)
        t0 = time.time()
        records[q] = oracle_record(scheme, spec)
        print(
            f"q={q}: {spec.label():14s} |G|={records[q]['order']:>8}"
            f"  #irr={records[q]['n_irr']:>4}  ({time.time()-t0:.1f}s)"
        )
    holdout = (5, records.pop(5))
    report = fit_polynomials(scheme, 2, records, holdout=holdout)
    print()
    print(render_fit_markdown(report))
    if not report.holdout_match:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
