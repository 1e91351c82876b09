"""Experiment orchestration: cached degree oracles, ring comparison, polynomial fits.

The fitter aligns degree multisets across sample values of q into polynomial
rows (d_i, m_i).  Alignment is by ascending degree value, with collided or
vanished rows at small q resolved by search; candidate fits must satisfy the
exact group-order identity  sum_i m_i(x) d_i(x)^2 = |G(o_r)|(x)  and the fit
of minimal total degree wins.  Anything still ambiguous is reported, never
guessed.

Flat multiset data determines the row polynomials only at level 1; at higher
levels the multiplicity rows outrun what three samples can see.  When the
samples come from the Clifford engine, its orbit output stratifies each
multiset into families (orbit count, orbit size, stabilizer-level table) whose
ingredients are low-degree and fit exactly; the final rows are assembled as
products of the fitted pieces.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from pathlib import Path

from .characters import DegreeMultiset, character_degrees
from .clifford import CliffordReport, clifford_dimirr, default_normal_subgroup
from .groups import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    FiniteMatrixGroup,
    GroupScheme,
    build_group,
    check_budget,
    scheme_order_poly,
)
from .intlinalg import nullspace
from .localring import RingSpec
from .polynomials import RationalPoly, interpolate

CACHE_ENV = "REPZOO_CACHE"
DEFAULT_CACHE_DIR = ".repzoo_cache"
_PROFILE_LIMIT = 200_000


class AlignmentError(ValueError):
    """No consistent row assignment across the sampled q."""


class AmbiguousFitError(ValueError):
    """Multiple minimal fits satisfy every constraint; refusing to guess."""


@dataclass
class ExperimentConfig:
    scheme: GroupScheme
    ring_specs: tuple[RingSpec, ...]
    engine: str = "auto"  # chardeg | clifford | both | auto
    budget: int = DEFAULT_BUDGET
    cache_dir: str | None = None

    def __post_init__(self):
        if self.engine not in ("chardeg", "clifford", "both", "auto"):
            raise ValueError(f"unknown engine {self.engine!r}")
        levels = {s.r for s in self.ring_specs}
        if len(levels) > 1:
            raise ValueError("all rings in a family must share the level r")

    def resolved_cache_dir(self) -> Path:
        if self.cache_dir:
            return Path(self.cache_dir)
        return Path(os.environ.get(CACHE_ENV, DEFAULT_CACHE_DIR))


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _resolve_engine(engine: str, spec: RingSpec) -> str:
    if engine != "auto":
        return engine
    return "clifford" if spec.r >= 2 else "chardeg"


def compute_degrees(
    scheme: GroupScheme, spec: RingSpec, engine: str = "auto", budget: int = DEFAULT_BUDGET
) -> DegreeMultiset:
    """Degree oracle for one (scheme, ring) pair via the requested engine."""
    engine = _resolve_engine(engine, spec)
    group = build_group(scheme, spec, budget)
    if engine == "chardeg":
        return character_degrees(group)
    if engine == "clifford":
        return compute_clifford_report(scheme, spec, budget).degrees
    a = character_degrees(group)
    b = compute_clifford_report(scheme, spec, budget).degrees
    assert a.entries == b.entries, ("engine mismatch", a.entries, b.entries)
    return a


def compute_clifford_report(
    scheme: GroupScheme, spec: RingSpec, budget: int = DEFAULT_BUDGET
) -> CliffordReport:
    """The Clifford report of the group, built once per process; build_group
    checks the budget on every call, before the memo."""
    return _clifford_report(build_group(scheme, spec, budget))


@cache
def _clifford_report(group: FiniteMatrixGroup) -> CliffordReport:
    # build_group returns one group object per (scheme, spec)
    return clifford_dimirr(group, default_normal_subgroup(group))


def run_dimirr(config: ExperimentConfig) -> dict[str, dict]:
    """Per-ring degree multisets, cached on disk keyed by (scheme, ring, engine).

    An entry that does not parse, was written for another key, or whose degrees
    fail the order identity is recomputed and rewritten; entries are written to
    a temporary file and renamed into place, so a reader never sees half of one.
    """
    cache_dir = config.resolved_cache_dir()
    cache_dir.mkdir(parents=True, exist_ok=True)
    results: dict[str, dict] = {}
    for spec in config.ring_specs:
        key_obj = {
            "scheme": config.scheme.label(),
            "ring": spec.to_json(),
            "engine": config.engine,
        }
        key = hashlib.sha256(_canonical_json(key_obj).encode()).hexdigest()
        try:
            order = check_budget(config.scheme, spec, config.budget)
        except BudgetExceededError as exc:
            # the key leaves out the budget, so the budget is checked before the
            # cache is read, and the error is not cached
            results[spec.label()] = {"key": key_obj, "error": str(exc), "predicted": exc.predicted}
            continue
        path = cache_dir / f"{key}.json"
        cached = _read_entry(path, key_obj, order)
        if cached is not None:
            results[spec.label()] = cached
            continue
        dm = compute_degrees(config.scheme, spec, config.engine, config.budget)
        payload = {
            "key": key_obj,
            "order": dm.sum_of_squares,
            "n_irr": dm.total_count,
            "degrees": dm.to_json(),
        }
        if _resolve_engine(config.engine, spec) in ("clifford", "both"):
            report = compute_clifford_report(config.scheme, spec, config.budget)
            payload["strata"] = _strata_json(report)
            payload["dual_order"] = sum(o.orbit_size for o in report.orbits)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(_canonical_json(payload))
        os.replace(tmp, path)
        results[spec.label()] = payload
    return results


def _read_entry(path: Path, key_obj: dict, order: int) -> dict | None:
    """The cache entry at path, or None if it is missing, unparsable, written
    for another key, or its degrees fail the checks of DegreeMultiset.validate."""
    try:
        payload = json.loads(path.read_text())
        if payload["key"] != key_obj:
            return None
        DegreeMultiset.from_json(payload["degrees"]).validate(order)
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError, AssertionError):
        return None
    return payload


def _strata_json(report: CliffordReport) -> list:
    return [
        {"sigma": sigma, "nu": nu, "dims": [list(p) for p in dims]}
        for (sigma, dims), nu in _stratify(report)
    ]


# -- ring comparison -----------------------------------------------------------------


@dataclass
class CompareReport:
    scheme: str
    spec_a: str
    spec_b: str
    equal: bool
    degrees_a: DegreeMultiset
    degrees_b: DegreeMultiset
    diff: tuple[tuple[int, int, int], ...]  # (degree, mult_a, mult_b) where they differ

    def to_json(self) -> dict:
        return {
            "scheme": self.scheme,
            "a": self.spec_a,
            "b": self.spec_b,
            "equal": self.equal,
            "degrees_a": self.degrees_a.to_json(),
            "degrees_b": self.degrees_b.to_json(),
            "diff": [list(t) for t in self.diff],
        }


def compare_rings(
    scheme: GroupScheme,
    spec_a: RingSpec,
    spec_b: RingSpec,
    engine: str = "auto",
    budget: int = DEFAULT_BUDGET,
) -> CompareReport:
    """Multiset equality verdict for dimirr over two rings, with per-degree diff."""
    da = compute_degrees(scheme, spec_a, engine, budget)
    db = compute_degrees(scheme, spec_b, engine, budget)
    diff = da.diff(db)
    return CompareReport(
        scheme.label(), spec_a.label(), spec_b.label(), not diff, da, db, diff
    )


# -- polynomial fitting: shared table core -----------------------------------------------


@dataclass
class FitRow:
    dim: RationalPoly
    mult: RationalPoly


@dataclass
class FitReport:
    scheme: str
    level: int
    k: int
    rows: tuple[FitRow, ...]
    sample_qs: tuple[int, ...]
    score: int
    notes: tuple[str, ...] = ()
    holdout_q: int | None = None
    holdout_match: bool | None = None
    holdout_predicted: tuple[tuple[int, int], ...] | None = None
    holdout_oracle: tuple[tuple[int, int], ...] | None = None
    holdout_diff: tuple[tuple[int, int, int], ...] | None = None

    def predicted_multiset(self, q: int) -> DegreeMultiset:
        pairs = []
        for row in self.rows:
            d, m = row.dim(q), row.mult(q)
            assert d.denominator == 1 and m.denominator == 1, "non-integer prediction"
            assert m >= 0, "negative multiplicity prediction"
            if m:
                pairs.append((int(d), int(m)))
        return DegreeMultiset.from_pairs(pairs)

    def to_json(self) -> dict:
        return {
            "scheme": self.scheme,
            "level": self.level,
            "k": self.k,
            "samples": list(self.sample_qs),
            "rows": [
                {"d": r.dim.to_json(), "m": r.mult.to_json()} for r in self.rows
            ],
            "score": self.score,
            "notes": list(self.notes),
            "holdout": None
            if self.holdout_q is None
            else {
                "q": self.holdout_q,
                "match": self.holdout_match,
                "predicted": [list(p) for p in self.holdout_predicted],
                "oracle": [list(p) for p in self.holdout_oracle],
                "diff": [list(p) for p in self.holdout_diff],
            },
        }


def _slot_assignments(entries, k: int):
    """All ways to spread multiset entries over k ordered slots.

    Zero slots carry a free key (None); nonzero slots consume the entries in
    order, splitting an entry's multiplicity across adjacent slots when values
    collide at this q.  Entry keys are opaque (degrees, or stratum signatures).
    """
    out = []
    n = len(entries)

    def rec(idx, taken, slots):
        filled = len(slots)
        if filled == k:
            if idx == n:
                out.append(tuple(slots))
            return
        remaining = k - filled
        pending = n - idx
        if remaining - 1 >= pending:
            slots.append((None, 0))
            rec(idx, taken, slots)
            slots.pop()
        if idx < n:
            d, m = entries[idx]
            left = m - taken
            for take in range(1, left + 1):
                slots.append((d, take))
                if take < left:
                    rec(idx, taken + take, slots)
                else:
                    rec(idx + 1, 0, slots)
                slots.pop()

    rec(0, 0, [])
    return out


def _solve_linear(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Exact solve; returns (particular, nullspace basis) or None if inconsistent.

    Solutions are the nullspace vectors of [rows | -rhs] whose last coordinate
    is 1.  The rhs column is the last free column unless the system is
    inconsistent, so its basis vector comes last and is the particular solution.
    """
    basis = nullspace([row + [-b] for row, b in zip(rows, rhs)])
    if not basis or basis[-1][-1] != 1:
        return None
    return basis[-1][:-1], [v[:-1] for v in basis[:-1]]


def _poly_coeff_vector(p: RationalPoly, length: int) -> list[Fraction]:
    return [p.coeffs[i] if i <= p.degree else Fraction(0) for i in range(length)]


def _coeff_denominators_ok(p: RationalPoly, bound: int) -> bool:
    return all(bound % c.denominator == 0 for c in p.coeffs)


class _ProfileAmbiguous(Exception):
    pass


def _fit_mults_for_profile(interp, d_sq, sroot, target, profile, den_bound, ceiling):
    """Solutions m_i = interp_i + sroot * c_i of the exact order identity.

    profile[i] is None (c_i = 0 forced) or the degree allowed for c_i.  Raises
    _ProfileAmbiguous when the residual family cannot be pinned down.
    """
    k = len(interp)
    unknown_slots = [
        (i, t) for i, dc in enumerate(profile) if dc is not None for t in range(dc + 1)
    ]
    degrees = [target.degree] + [
        sroot.degree + t + d_sq[i].degree for i, t in unknown_slots
    ]
    lhs_len = max(max(degrees) + 1, 1)
    cols = [
        _poly_coeff_vector(sroot * RationalPoly.monomial(t) * d_sq[i], lhs_len)
        for i, t in unknown_slots
    ]
    rhs = _poly_coeff_vector(target, lhs_len)
    rows = [[col[r] for col in cols] for r in range(lhs_len)]
    solved = _solve_linear(rows, rhs)
    if solved is None:
        return []
    particular, nullspace = solved

    def build(solution):
        mults = []
        for i in range(k):
            c = RationalPoly.zero()
            for idx, (row, t) in enumerate(unknown_slots):
                if row == i and solution[idx] != 0:
                    c = c + RationalPoly.monomial(t, solution[idx])
            mults.append(interp[i] + sroot * c)
        return mults

    def valid(mults):
        for m in mults:
            if m.is_zero() or m.leading <= 0:
                return False
            if m.degree > ceiling:
                return False
            if not _coeff_denominators_ok(m, den_bound):
                return False
            if not m.is_integer_valued():
                return False
        return True

    if not nullspace:
        mults = build(particular)
        return [mults] if valid(mults) else []
    if len(nullspace) > 1:
        raise _ProfileAmbiguous(f"{len(nullspace)}-dimensional residual family")
    v = nullspace[0]
    base_mults = build(particular)
    slope_mults = []
    for i in range(k):
        c = RationalPoly.zero()
        for idx, (row, t) in enumerate(unknown_slots):
            if row == i and v[idx] != 0:
                c = c + RationalPoly.monomial(t, v[idx])
        slope_mults.append(sroot * c)

    # top-coefficient positivity brackets the line parameter t
    lo, hi = None, None
    for base, slope in zip(base_mults, slope_mults):
        if slope.is_zero():
            continue
        deg = max(base.degree, slope.degree)
        a = slope.coeffs[deg] if deg <= slope.degree else Fraction(0)
        b = base.coeffs[deg] if deg <= base.degree else Fraction(0)
        if a == 0:
            continue
        bound = -b / a
        if a > 0:
            lo = bound if lo is None else max(lo, bound)
        else:
            hi = bound if hi is None else min(hi, bound)
    if lo is None or hi is None:
        raise _ProfileAmbiguous("residual family unbounded by positivity")
    if lo > hi:
        return []

    # denominator lattice: admissible t lie on a progression from one coordinate
    anchor = next(idx for idx in range(len(v)) if v[idx] != 0)
    step = Fraction(1, den_bound) / abs(v[anchor])
    offset = -particular[anchor] / v[anchor]
    k0 = math.ceil(Fraction(lo - offset) / step)
    k1 = math.floor(Fraction(hi - offset) / step)
    if k1 - k0 > 10000:
        raise _ProfileAmbiguous("residual lattice too dense to enumerate")
    found = []
    for kk in range(k0, k1 + 1):
        t = offset + kk * step
        mults = [
            b + t * s if not s.is_zero() else b
            for b, s in zip(base_mults, slope_mults)
        ]
        if valid(mults):
            found.append(mults)
    return found


def _fit_table(
    qs,
    entries_by_q,
    identity_rhs: RationalPoly,
    ceiling: int,
    den_bound: int,
    allow_residuals: bool,
    notes: list[str],
):
    """Fit (d_i, m_i) rows through per-q (degree, count) tables under an identity.

    Returns the list of (rows, score) candidates at the minimal score; the
    caller decides how to treat ties.
    """
    s = len(qs)
    k = max(len(entries_by_q[q]) for q in qs)
    sroot = RationalPoly.one()
    for q in qs:
        sroot = sroot * RationalPoly((-q, 1))
    per_sample = {q: _slot_assignments(entries_by_q[q], k) for q in qs}
    for q, assigns in per_sample.items():
        if not assigns:
            raise AlignmentError(
                f"slot counts {[len(entries_by_q[x]) for x in qs]} admit no {k}-row assignment at q={q}"
            )
    residual_options = [None] + (
        list(range(max(ceiling - s + 1, 0))) if allow_residuals else []
    )
    if len(residual_options) ** k > _PROFILE_LIMIT:
        raise AlignmentError(
            f"profile space {len(residual_options)}^{k} too large; add sample points"
        )

    best_score: int | None = None
    winners: list[tuple[tuple, tuple[FitRow, ...], int]] = []

    for combo in itertools.product(*[per_sample[q] for q in qs]):
        assign = dict(zip(qs, combo))
        dims = []
        ok = True
        for i in range(k):
            pts = [(q, assign[q][i][0]) for q in qs if assign[q][i][0] is not None]
            if not pts:
                ok = False
                break
            d = interpolate(pts)
            if (
                d.is_zero()
                or d.leading <= 0
                or not d.has_integer_coeffs()
                or d.degree > min(s - 1, ceiling)
                or any(d(q) < 1 for q in qs)
            ):
                ok = False
                break
            dims.append(d)
        if not ok:
            continue
        if any(
            dims[i](q) > dims[i + 1](q)
            for q in qs
            for i in range(k - 1)
            if assign[q][i][0] is not None and assign[q][i + 1][0] is not None
        ):
            continue
        interp = [interpolate([(q, assign[q][i][1]) for q in qs]) for i in range(k)]
        d_sq = [d * d for d in dims]
        base = RationalPoly.zero()
        for i in range(k):
            base = base + interp[i] * d_sq[i]
        target = identity_rhs - base
        dims_cost = sum(d.degree for d in dims)

        profiles = sorted(
            itertools.product(*([residual_options] * k)),
            key=lambda pr: (
                sum(interp[i].degree if pr[i] is None else s + pr[i] for i in range(k)),
                tuple(-1 if t is None else t for t in pr),
            ),
        )
        for pr in profiles:
            mult_cost = sum(
                interp[i].degree if pr[i] is None else s + pr[i] for i in range(k)
            )
            if best_score is not None and dims_cost + mult_cost > best_score:
                break
            try:
                sols = _fit_mults_for_profile(
                    interp, d_sq, sroot, target, pr, den_bound, ceiling
                )
            except _ProfileAmbiguous as exc:
                notes.append(f"profile {pr}: {exc}")
                continue
            sols = [
                mults
                for mults in sols
                if all(
                    mults[i].degree
                    == (interp[i].degree if pr[i] is None else s + pr[i])
                    for i in range(k)
                )
            ]
            if not sols:
                continue
            uniq = {tuple(m.coeffs for m in ms) for ms in sols}
            if len(uniq) > 1:
                raise AmbiguousFitError(
                    f"{len(uniq)} minimal multiplicity fits at one profile; refusing to guess"
                )
            mults = sols[0]
            score = dims_cost + mult_cost
            rows = tuple(FitRow(d, m) for d, m in zip(dims, mults))
            keyset = tuple(sorted((r.dim.coeffs, r.mult.coeffs) for r in rows))
            if best_score is None or score < best_score:
                best_score = score
                winners = [(keyset, rows, score)]
            elif score == best_score and all(keyset != w[0] for w in winners):
                winners.append((keyset, rows, score))
            break
    return [(rows, score) for _keyset, rows, score in winners]


# -- flat and stratified drivers --------------------------------------------------------


def _fit_flat(scheme, level, samples, den_bound, ceiling, notes):
    qs = sorted(samples)
    order_poly = scheme_order_poly(scheme, level)
    for q in qs:
        assert samples[q].sum_of_squares == order_poly(q), (
            "sample inconsistent with the group order",
            q,
        )
    entries_by_q = {q: samples[q].entries for q in qs}
    winners = _fit_table(
        qs, entries_by_q, order_poly, ceiling, den_bound, True, notes
    )
    if not winners:
        raise AlignmentError(
            f"no consistent assignment for slot counts "
            f"{ {q: len(samples[q].entries) for q in qs} }"
        )
    if len(winners) > 1:
        raise AmbiguousFitError(
            f"{len(winners)} distinct minimal fits; refusing to guess"
        )
    rows, score = winners[0]
    return rows, score


def _stratify(report: CliffordReport):
    """Group orbit records into strata keyed by (orbit size, stabilizer table)."""
    groups: dict[tuple, int] = {}
    for o in report.orbits:
        key = (o.orbit_size, o.dims)
        groups[key] = groups.get(key, 0) + 1
    return sorted(groups.items())


def _fit_stratified(scheme, level, reports, den_bound, ceiling, notes):
    qs = sorted(reports)
    s = len(qs)
    order_poly = scheme_order_poly(scheme, level)
    # |N| per sample is the dual-group size: sum of orbit sizes; must be q^e
    exps = set()
    for q in qs:
        n_order = sum(o.orbit_size for o in reports[q].orbits)
        e = round(math.log(n_order, q)) if n_order > 1 else 0
        if q**e != n_order:
            raise AlignmentError(f"|N| = {n_order} is not a power of q = {q}")
        exps.add(e)
    if len(exps) != 1:
        raise AlignmentError(f"inconsistent kernel exponents across samples: {exps}")
    e_n = exps.pop()

    strata_by_q = {q: _stratify(reports[q]) for q in qs}
    k_st = max(len(strata_by_q[q]) for q in qs)
    per_sample = {q: _slot_assignments(strata_by_q[q], k_st) for q in qs}
    for q, assigns in per_sample.items():
        if not assigns:
            raise AlignmentError(
                f"stratum counts { {x: len(strata_by_q[x]) for x in qs} } admit no alignment at q={q}"
            )

    best_score = None
    winners = []
    for combo in itertools.product(*[per_sample[q] for q in qs]):
        assign = dict(zip(qs, combo))
        fit_rows: list[FitRow] = []
        score = 0
        ok = True
        for i in range(k_st):
            nu_pts = [(q, assign[q][i][1]) for q in qs]
            present = [q for q in qs if assign[q][i][0] is not None]
            if len(present) < 3:
                ok = False
                break
            nu = interpolate(nu_pts)
            if (
                nu.is_zero()
                or nu.leading <= 0
                or nu.degree > s - 1
                or not nu.is_integer_valued()
                or not _coeff_denominators_ok(nu, den_bound)
                or any(nu(q) < 0 for q in qs)
            ):
                ok = False
                break
            sigma = interpolate([(q, assign[q][i][0][0]) for q in present])
            if (
                sigma.is_zero()
                or sigma.leading <= 0
                or not sigma.has_integer_coeffs()
                or sigma.degree > s - 1
                or any(sigma(q) < 1 for q in present)
            ):
                ok = False
                break
            # inner identity: sum_j mu_j d_j^2 = |G| / (sigma * |N|)
            try:
                inner_rhs = order_poly.exact_div(sigma * RationalPoly.monomial(e_n))
            except ValueError:
                ok = False
                break
            inner_entries = {q: assign[q][i][0][1] for q in present}
            try:
                inner_winners = _fit_table(
                    present, inner_entries, inner_rhs, ceiling, den_bound, False, notes
                )
            except AlignmentError:
                ok = False
                break
            if not inner_winners:
                ok = False
                break
            if len(inner_winners) > 1:
                raise AmbiguousFitError(
                    "ambiguous stabilizer-level table fit; refusing to guess"
                )
            inner_rows, inner_score = inner_winners[0]
            score += nu.degree + sigma.degree + inner_score
            for r in inner_rows:
                fit_rows.append(FitRow(sigma * r.dim, nu * r.mult))
        if not ok:
            continue
        # merge rows with identical dimension polynomial
        merged: dict[tuple, RationalPoly] = {}
        dim_of: dict[tuple, RationalPoly] = {}
        for r in fit_rows:
            key = r.dim.coeffs
            dim_of[key] = r.dim
            merged[key] = merged.get(key, RationalPoly.zero()) + r.mult
        rows = tuple(
            FitRow(dim_of[key], merged[key])
            for key in sorted(merged, key=lambda c: (len(c), c))
        )
        total = RationalPoly.zero()
        for r in rows:
            total = total + r.mult * r.dim * r.dim
        if total != order_poly:
            continue
        keyset = tuple(sorted((r.dim.coeffs, r.mult.coeffs) for r in rows))
        if best_score is None or score < best_score:
            best_score = score
            winners = [(keyset, rows, score)]
        elif score == best_score and all(keyset != w[0] for w in winners):
            winners.append((keyset, rows, score))

    if not winners:
        raise AlignmentError("no consistent stratum alignment across samples")
    if len(winners) > 1:
        raise AmbiguousFitError(
            f"{len(winners)} distinct minimal stratified fits; refusing to guess"
        )
    _, rows, score = winners[0]
    return rows, score


def fit_polynomials(
    scheme: GroupScheme,
    level: int,
    samples: dict[int, DegreeMultiset | CliffordReport],
    holdout: tuple[int, DegreeMultiset] | None = None,
    den_bound: int | None = None,
) -> FitReport:
    """Fit (d_i, m_i) rows through oracle data sampled at >= 3 values of q.

    Sample values may be plain DegreeMultisets (flat fit) or CliffordReports
    (stratified fit; required beyond level 1, where multiset data alone is
    underdetermined).
    """
    if len(samples) < 3:
        raise AlignmentError("need at least 3 sample values of q")
    if den_bound is None:
        den_bound = math.factorial(scheme.n)
    qs = sorted(samples)
    notes: list[str] = []
    # degree cap for every fitted row polynomial
    ceiling = scheme.n * (scheme.n - 1) // 2 * level + scheme.n
    observed = {
        q: samples[q].degrees if isinstance(samples[q], CliffordReport) else samples[q]
        for q in qs
    }
    if all(isinstance(samples[q], CliffordReport) for q in qs):
        rows, score = _fit_stratified(scheme, level, samples, den_bound, ceiling, notes)
    else:
        rows, score = _fit_flat(scheme, level, observed, den_bound, ceiling, notes)

    report = FitReport(scheme.label(), level, len(rows), rows, tuple(qs), score, tuple(notes))

    for q in qs:
        predicted = report.predicted_multiset(q)
        assert predicted.entries == observed[q].entries, (q, predicted.entries)

    if holdout is not None:
        hq, oracle = holdout
        predicted = report.predicted_multiset(hq)
        diff = predicted.diff(oracle)
        report.holdout_q = hq
        report.holdout_predicted = predicted.entries
        report.holdout_oracle = oracle.entries
        report.holdout_match = not diff
        report.holdout_diff = diff
    return report


# -- report rendering ---------------------------------------------------------------------


def render_fit_markdown(report: FitReport) -> str:
    lines = [
        f"# Dimension/multiplicity fit: {report.scheme} at level {report.level}",
        "",
        f"samples: q in {list(report.sample_qs)}",
        "",
        "| i | d_i(x) | m_i(x) |",
        "|---|--------|--------|",
    ]
    for i, row in enumerate(report.rows, 1):
        lines.append(f"| {i} | {row.dim.pretty()} | {row.mult.pretty()} |")
    if report.holdout_q is not None:
        lines.append("")
        verdict = "matches" if report.holdout_match else "MISMATCH"
        lines.append(
            f"holdout q={report.holdout_q}: prediction {verdict} the oracle multiset"
        )
    lines.append("")
    return "\n".join(lines)


def render_fit_csv(report: FitReport) -> str:
    lines = ["i,d_i,m_i"]
    for i, row in enumerate(report.rows, 1):
        lines.append(f'{i},"{row.dim.pretty()}","{row.mult.pretty()}"')
    lines.append("")
    return "\n".join(lines)


def write_report(report: FitReport, fmt: str, path: str | Path) -> Path:
    path = Path(path)
    if fmt == "json":
        path.write_text(_canonical_json(report.to_json()))
    elif fmt == "markdown":
        path.write_text(render_fit_markdown(report))
    elif fmt == "csv":
        path.write_text(render_fit_csv(report))
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return path
