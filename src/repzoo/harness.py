"""Experiment orchestration: cached degree oracles, ring comparison, polynomial fits.

The fitter has one core.  `_alignments` aligns the per-q (value, count) tables
into rows by ascending value, with rows that collide or vanish at small q
spread over adjacent slots.  It places one row at a time and asks a row fitter
for its fit; a row that does not fit drops every alignment that begins with
the rows placed so far.  `_fit_table` fits each row's d_i as it is placed, then
m_i under the exact group-order identity sum_i m_i(x) d_i(x)^2 = |G(o_r)|(x),
and `_LeastScore` returns the fit of least total degree.  Every row polynomial
is in Q[x] with coefficient denominators dividing n! and passes `_is_row_poly`;
degrees and orbit sizes must also be positive integers at the samples.  No
leading term of the identity cancels, so deg m_i + 2 deg d_i <= deg |G| bounds
every row and residual.  No fit, or several at that degree, is an error:
anything ambiguous is reported, never guessed.

Flat multiset data determines the row polynomials only at level 1; at higher
levels the multiplicity rows outrun what three samples can see.  When the
samples come from the Clifford engine, their records (`oracle_record`, the
record that `run_dimirr` caches) stratify each multiset into families (orbit
count, orbit size, stabilizer-level table).  The same search and selector run
over the strata, with `_fit_stratum` as the row fitter, and `_fit_table` fits
each stabilizer-level table; the final rows are products of the fitted pieces.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import tempfile
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from pathlib import Path

from .characters import DegreeMultiset, character_degrees
from .clifford import CliffordReport, clifford_dimirr, default_normal_subgroup
from .groups import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    CosetGroup,
    FiniteGroup,
    GroupScheme,
    build_group,
    check_budget,
    coset_group,
    scheme_order_poly,
)
from .intlinalg import nullspace
from .localring import RingSpec
from .polynomials import RationalPoly, interpolate

CACHE_ENV = "REPZOO_CACHE"
DEFAULT_CACHE_DIR = ".repzoo_cache"
# hashed into every cache file name and raised whenever an entry's meaning or
# layout changes, so an entry written under another schema is never read
CACHE_SCHEMA = 1
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
    if engine == "clifford":
        return compute_clifford_report(scheme, spec, budget).degrees
    a = character_degrees(build_group(scheme, spec, budget))
    if engine == "both":
        b = compute_clifford_report(scheme, spec, budget).degrees
        if a.entries != b.entries:
            raise AssertionError("engine mismatch", a.entries, b.entries)
    return a


def compute_clifford_report(
    scheme: GroupScheme, spec: RingSpec, budget: int = DEFAULT_BUDGET
) -> CliffordReport:
    """The Clifford report of the group, built once per process.  At r >= 2 the
    group is a CosetGroup, so G(o_r) is never enumerated, unless dim G = 0 and
    G has one element; the builders check the budget on every call, before the
    memo (coset_group against clifford_size)."""
    if spec.r >= 2 and scheme.dim:
        return _clifford_report(coset_group(scheme, spec, budget))
    return _clifford_report(build_group(scheme, spec, budget))


@cache
def _clifford_report(group: FiniteGroup | CosetGroup) -> CliffordReport:
    # the builders return one group object per (scheme, spec)
    return clifford_dimirr(group, default_normal_subgroup(group))


def run_dimirr(config: ExperimentConfig) -> dict[str, dict]:
    """Per-ring degree multisets, cached on disk keyed by (scheme, ring, engine)
    and the cache schema.

    An entry that does not parse, was written for another key, or fails the
    checks of _read_entry is recomputed and rewritten; entries are written to
    a temporary file and renamed into place, so a reader never sees half of one.
    """
    cache_dir = config.resolved_cache_dir()
    cache_dir.mkdir(parents=True, exist_ok=True)
    results: dict[str, dict] = {}
    for spec in config.ring_specs:
        engine = _resolve_engine(config.engine, spec)
        try:
            order = check_budget(config.scheme, spec, config.budget, clifford=engine == "clifford")
        except BudgetExceededError as exc:
            # checked before the key is built, since spec.to_json finds the
            # default modulus slowly for a large f; the key leaves out the
            # budget, so the error is not cached
            results[spec.label()] = {"error": str(exc), "predicted": exc.predicted}
            continue
        key_obj = {
            "scheme": config.scheme.label(),
            "ring": spec.to_json(),
            "engine": config.engine,
        }
        hashed = _canonical_json({"schema": CACHE_SCHEMA, **key_obj})
        path = cache_dir / f"{hashlib.sha256(hashed.encode()).hexdigest()}.json"
        cached = _read_entry(path, key_obj, order)
        if cached is not None:
            results[spec.label()] = cached
            continue
        payload = {"key": key_obj, **oracle_record(config.scheme, spec, config.engine, config.budget)}
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(_canonical_json(payload))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        results[spec.label()] = payload
    return results


def _read_entry(path: Path, key_obj: dict, order: int) -> dict | None:
    """The cache entry at path, or None if it is missing, unparsable, written
    for another key, or fails check_record."""
    try:
        payload = json.loads(path.read_text())
        if payload["key"] != key_obj:
            return None
        check_record(payload, order)
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError, AssertionError):
        return None
    return payload


def oracle_record(
    scheme: GroupScheme, spec: RingSpec, engine: str = "auto", budget: int = DEFAULT_BUDGET
) -> dict:
    """The oracle's record for one (scheme, ring, engine), as run_dimirr caches
    it under its key: order, n_irr and degrees, and where the Clifford engine
    runs, its strata (nu orbits of size sigma with stabilizer-level table dims,
    keyed by (sigma, dims)) and dual_order, the size of the dual of N."""
    dm = compute_degrees(scheme, spec, engine, budget)
    record = {"order": dm.sum_of_squares, "n_irr": dm.total_count, "degrees": dm.to_json()}
    if _resolve_engine(engine, spec) in ("clifford", "both"):
        orbits = compute_clifford_report(scheme, spec, budget).orbits
        record["strata"] = [
            {"sigma": sigma, "nu": nu, "dims": [list(p) for p in dims]}
            for (sigma, dims), nu in sorted(Counter((o.orbit_size, o.dims) for o in orbits).items())
        ]
        record["dual_order"] = sum(o.orbit_size for o in orbits)
    return record


def check_record(record: dict, order: int) -> DegreeMultiset:
    """The degrees of an oracle record; raises AssertionError unless they pass
    DegreeMultiset.validate(order), the record's order is sum m d^2 and its
    n_irr sum m, and, when it has strata, the pairs (sigma d, nu m) rebuild its
    degrees and sum nu sigma is its dual_order."""
    dm = DegreeMultiset.from_json(record["degrees"])
    dm.validate(order)
    if (record["order"], record["n_irr"]) != (dm.sum_of_squares, dm.total_count):
        raise AssertionError("order or n_irr disagrees with the degrees", record["order"], record["n_irr"])
    if "strata" in record:
        strata = record["strata"]
        pairs = [(s["sigma"] * d, s["nu"] * m) for s in strata for d, m in s["dims"]]
        if DegreeMultiset.from_pairs(pairs) != dm:
            raise AssertionError("strata do not rebuild the degrees")
        if sum(s["nu"] * s["sigma"] for s in strata) != record["dual_order"]:
            raise AssertionError("dual_order is not sum nu sigma", record["dual_order"])
    return dm


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


# -- polynomial fitting -------------------------------------------------------------------


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
        for i, row in enumerate(self.rows, 1):
            d, m = row.dim(q), row.mult(q)
            if d.denominator != 1 or m.denominator != 1:
                raise AssertionError(
                    f"non-integer prediction at q = {q}: row {i} has d = {d}, m = {m}"
                )
            if m < 0:
                raise AssertionError("negative multiplicity prediction")
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


def _alignments(qs, entries_by_q, fit_row):
    """Yield (rows, fits) for each alignment of the per-q (key, count) tables into
    k rows, k the size of the largest table; rows are dicts {q: (key, count)}.

    At each q the rows take the entries in order, splitting a count over adjacent
    rows where values collide; a row absent at q has (None, 0) there, and one row
    is kept free for every entry not yet used up.  Rows are placed one at a time:
    fit_row(row) returns the row's fit, or None to drop every alignment that
    begins with the rows placed so far and this one.  Keys are opaque (degrees,
    or stratum signatures).
    """
    k = max(len(entries_by_q[q]) for q in qs)
    placed = []

    def place(j, row, state):
        # state[q]: the index of the entry in use at q and the count taken from it
        if j == len(qs):
            fit = fit_row(row)
            if fit is not None:
                placed.append((row, fit))
                if len(placed) == k:
                    yield tuple(zip(*placed))
                else:
                    yield from place(0, {}, state)
                placed.pop()
            return
        q = qs[j]
        idx, taken = state[q]
        pending = len(entries_by_q[q]) - idx  # entries not yet used up
        free = k - len(placed) - 1  # rows below this one
        options = []  # (slot, state at q after it)
        if free >= pending:
            options.append(((None, 0), (idx, taken)))
        if pending:
            key, count = entries_by_q[q][idx]
            left = count - taken
            if free >= pending:
                options += [((key, t), (idx, taken + t)) for t in range(1, left)]
            if free >= pending - 1:
                options.append(((key, left), (idx + 1, 0)))
        for slot, after in options:
            yield from place(j + 1, {**row, q: slot}, {**state, q: after})

    yield from place(0, {}, dict.fromkeys(qs, (0, 0)))


class _LeastScore:
    """The distinct fits of least score offered so far; a fit is told apart by
    its set of (d, m) rows, in any order."""

    def __init__(self):
        self.score: int | None = None
        self.fits: dict[tuple, tuple[FitRow, ...]] = {}

    def offer(self, rows: tuple[FitRow, ...], score: int) -> None:
        keyset = tuple(sorted((r.dim.coeffs, r.mult.coeffs) for r in rows))
        if self.score is None or score < self.score:
            self.score, self.fits = score, {keyset: rows}
        elif score == self.score:
            self.fits.setdefault(keyset, rows)

    def unique(self, what: str) -> tuple[tuple[FitRow, ...], int]:
        """The one least-score fit and its score; none or several is an error."""
        if not self.fits:
            raise AlignmentError(f"no consistent fit for {what}")
        if len(self.fits) > 1:
            raise AmbiguousFitError(
                f"{len(self.fits)} distinct minimal fits for {what}; refusing to guess"
            )
        (rows,) = self.fits.values()
        return rows, self.score


def _is_row_poly(p: RationalPoly, cap: int, den_bound: int, qs=()) -> bool:
    """p can be a row polynomial (a degree, a count, an orbit size): a positive
    leading term, degree at most cap, coefficient denominators dividing
    den_bound, and a positive integer at each of qs."""
    return (
        p.leading > 0
        and p.degree <= cap
        and all(den_bound % c.denominator == 0 for c in p.coeffs)
        and all(v.denominator == 1 and v > 0 for v in map(p, qs))
    )


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


class _ProfileAmbiguous(Exception):
    pass


def _fit_mults_for_profile(interp, d_sq, sroot, target, profile, den_bound, cap):
    """Solutions m_i = interp_i + sroot * c_i of the exact order identity.

    profile[i] is None (c_i = 0 forced) or the degree allowed for c_i.  Raises
    _ProfileAmbiguous when the residual family cannot be pinned down.
    """
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

    def residuals(solution):
        # sroot * c_i for each row i, c_i read off a solution vector
        cs = [RationalPoly.zero()] * len(interp)
        for (i, t), a in zip(unknown_slots, solution):
            if a != 0:
                cs[i] = cs[i] + RationalPoly.monomial(t, a)
        return [sroot * c for c in cs]

    def valid(mults):
        return all(_is_row_poly(m, cap, den_bound) for m in mults)

    base_mults = [m + r for m, r in zip(interp, residuals(particular))]
    if not nullspace:
        return [base_mults] if valid(base_mults) else []
    if len(nullspace) > 1:
        raise _ProfileAmbiguous(f"{len(nullspace)}-dimensional residual family")
    v = nullspace[0]
    slope_mults = residuals(v)

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


def _fit_table(qs, entries_by_q, identity_rhs, den_bound, notes):
    """The least-score rows (d_i, m_i) through per-q (degree, count) tables under
    sum_i m_i d_i^2 = identity_rhs, and their score.

    Rows are placed one at a time: d_i interpolates row i's degrees and must pass
    _is_row_poly with the samples, or every alignment that begins with rows 1..i
    is dropped.  Over each full alignment, m_i interpolates row i's counts, plus
    sroot = (x - q_1)...(x - q_s) times a residual c_i of exact degree t where
    the identity needs one; m_i passes _is_row_poly at no sample (there it is
    the observed count, maybe 0).  No leading term cancels, so s + t + 2 deg d_i
    <= deg identity_rhs, and the largest t + 2 deg d_i over the residual rows is
    deg(target / sroot), target = identity_rhs - sum_i interp_i d_i^2 (no
    residual at all when target is 0).  Raises AlignmentError when nothing fits
    and AmbiguousFitError when distinct fits share the least score.
    """
    s = len(qs)
    k = max(len(entries_by_q[q]) for q in qs)
    top = identity_rhs.degree
    sroot = math.prod((RationalPoly((-q, 1)) for q in qs), start=RationalPoly.one())
    width = max(top - s + 2, 1)  # a degree-0 row's options: None and t = 0..top - s
    if width**k > _PROFILE_LIMIT:
        raise AlignmentError(f"profile space {width}^{k} too large; add sample points")

    def fit_row(row):
        d = interpolate([(q, key) for q, (key, _) in row.items() if key is not None])
        return d if _is_row_poly(d, top // 2, den_bound, qs) else None

    best = _LeastScore()
    for aligned, dims in _alignments(qs, entries_by_q, fit_row):
        interp = [interpolate([(q, count) for q, (_, count) in row.items()]) for row in aligned]
        d_sq = [d * d for d in dims]
        target = identity_rhs - sum((m * e for m, e in zip(interp, d_sq)), RationalPoly.zero())
        dims_cost = sum(d.degree for d in dims)

        def row_cost(i, t):
            # the degree of m_i under residual degree t (None: no residual)
            return interp[i].degree if t is None else s + t

        def cost(profile):
            return dims_cost + sum(row_cost(i, t) for i, t in enumerate(profile))

        def reach(profile):  # deg(target / sroot) under the profile's residuals
            return max((t + e.degree for t, e in zip(profile, d_sq) if t is not None), default=-1)

        need = target.degree - s if target else -1
        options = [[None, *range(top - s - e.degree + 1)] for e in d_sq]
        profiles = sorted(
            (pr for pr in itertools.product(*options) if reach(pr) == need),
            key=lambda pr: (cost(pr), tuple(-1 if t is None else t for t in pr)),
        )
        for pr in profiles:
            if best.score is not None and cost(pr) > best.score:
                break
            try:
                sols = _fit_mults_for_profile(interp, d_sq, sroot, target, pr, den_bound, top)
            except _ProfileAmbiguous as exc:
                notes.append(f"profile {pr}: {exc}")
                continue
            sols = [
                mults
                for mults in sols
                if all(m.degree == row_cost(i, t) for i, (m, t) in enumerate(zip(mults, pr)))
            ]
            if not sols:
                continue
            uniq = {tuple(m.coeffs for m in ms) for ms in sols}
            if len(uniq) > 1:
                raise AmbiguousFitError(
                    f"{len(uniq)} minimal multiplicity fits at one profile; refusing to guess"
                )
            best.offer(tuple(FitRow(d, m) for d, m in zip(dims, sols[0])), cost(pr))
            break
    return best.unique(f"slot counts { {q: len(entries_by_q[q]) for q in qs} }")


def _fit_stratum(stratum, order_poly, e_n, den_bound, notes):
    """The rows (sigma * d_j, nu * mu_j) of one aligned stratum {q: (key, count)}
    and their score, or None when it does not fit.

    nu counts the stratum's orbits, sigma is their size, and (d_j, mu_j) fit
    its stabilizer-level table under sum_j mu_j d_j^2 = |G| / (sigma * |N|).
    """
    # key: (orbit size, stabilizer-level table)
    keys = {q: key for q, (key, _) in stratum.items() if key is not None}
    if len(keys) < 3:
        return None
    present = list(keys)
    nu = interpolate([(q, count) for q, (_, count) in stratum.items()])
    sigma = interpolate([(q, size) for q, (size, _) in keys.items()])
    cap = order_poly.degree
    if not (_is_row_poly(nu, cap, den_bound) and _is_row_poly(sigma, cap, den_bound, present)):
        return None
    try:
        inner_rhs = order_poly.exact_div(sigma * RationalPoly.monomial(e_n))
    except ValueError:
        return None
    tables = {q: table for q, (_, table) in keys.items()}
    try:
        rows, score = _fit_table(present, tables, inner_rhs, den_bound, notes)
    except AlignmentError:
        return None
    rows = tuple(FitRow(sigma * r.dim, nu * r.mult) for r in rows)
    return rows, nu.degree + sigma.degree + score


def _fit_stratified(order_poly, records, den_bound, notes):
    """The least-score rows assembled from per-stratum fits of the records'
    strata whose rows, merged by dimension, satisfy sum_i m_i d_i^2 = |G|, and
    their score.  Strata are placed one at a time, and one that _fit_stratum
    cannot fit drops every alignment that begins with it."""
    qs = sorted(records)
    # |N| per sample is the dual-group size; must be q^e
    exps = set()
    for q in qs:
        n_order = records[q]["dual_order"]
        e = next(k for k in itertools.count() if q**k >= n_order)
        if q**e != n_order:
            raise AlignmentError(f"|N| = {n_order} is not a power of q = {q}")
        exps.add(e)
    if len(exps) != 1:
        raise AlignmentError(f"inconsistent kernel exponents across samples: {exps}")
    e_n = exps.pop()

    strata_by_q = {
        q: [((s["sigma"], s["dims"]), s["nu"]) for s in records[q]["strata"]] for q in qs
    }

    def fit_row(stratum):
        return _fit_stratum(stratum, order_poly, e_n, den_bound, notes)

    best = _LeastScore()
    for _, fits in _alignments(qs, strata_by_q, fit_row):
        # merge rows with identical dimension polynomial
        merged: dict[tuple, FitRow] = {}
        for fit_rows, _ in fits:
            for r in fit_rows:
                old = merged.get(r.dim.coeffs)
                merged[r.dim.coeffs] = r if old is None else FitRow(r.dim, old.mult + r.mult)
        rows = tuple(merged[key] for key in sorted(merged, key=lambda c: (len(c), c)))
        if sum((r.mult * r.dim * r.dim for r in rows), RationalPoly.zero()) == order_poly:
            best.offer(rows, sum(score for _, score in fits))
    return best.unique(f"stratum counts { {q: len(strata_by_q[q]) for q in qs} }")


def fit_polynomials(
    scheme: GroupScheme,
    level: int,
    samples: dict[int, dict],
    holdout: tuple[int, dict] | None = None,
) -> FitReport:
    """Fit (d_i, m_i) rows through oracle records (see oracle_record) sampled at
    >= 3 values of q; the holdout is a (q, record) pair.

    Every sample passes check_record against |G|(q); the holdout is not
    checked.  The fit is stratified when every sample has strata (required
    beyond level 1, where multiset data alone is underdetermined) and flat
    otherwise.  No fitted polynomial has a degree above that of |G|(x):
    sum_i m_i d_i^2 = |G| and every term on the left has a positive leading
    coefficient.
    """
    if len(samples) < 3:
        raise AlignmentError("need at least 3 sample values of q")
    qs = sorted(samples)
    order_poly = scheme_order_poly(scheme, level)
    den_bound = math.factorial(scheme.n)
    notes: list[str] = []
    observed = {q: check_record(samples[q], order_poly(q)) for q in qs}
    if all("strata" in samples[q] for q in qs):
        rows, score = _fit_stratified(order_poly, samples, den_bound, notes)
    else:
        entries_by_q = {q: observed[q].entries for q in qs}
        rows, score = _fit_table(qs, entries_by_q, order_poly, den_bound, notes)

    report = FitReport(scheme.label(), level, len(rows), rows, tuple(qs), score, tuple(notes))

    for q in qs:
        predicted = report.predicted_multiset(q)
        if predicted.entries != observed[q].entries:
            raise AssertionError("fit does not reproduce its sample", q, predicted.entries)

    if holdout is not None:
        hq, record = holdout
        oracle = DegreeMultiset.from_json(record["degrees"])
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
    return "\n".join(lines)


def render_fit(report: FitReport, fmt: str) -> str:
    """The report as `repzoo fit --format fmt` prints it and writes it to --out."""
    if fmt == "json":
        text = json.dumps(report.to_json(), indent=2)
    elif fmt == "markdown":
        text = render_fit_markdown(report)
    elif fmt == "csv":
        text = render_fit_csv(report)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return text + "\n"
