"""Type-A group orders, maximal-torus orders, and generic degree polynomials.

For GL_n (rank n) and SL_n (rank n - 1) over F_q, split (eps = 1) or
unitary-twisted (eps = -1), the group order is the textbook product

    |GL_n^eps(q)| = q^N * prod_{i=1..n} (q^i - eps^i),    N = n(n - 1)/2,

divided once by q - eps for SL (Carter, Finite Groups of Lie Type, 1985,
sec. 2.9).  The Weyl group W = S_n is walked as the permutations of 0..n-1.
The maximal torus T_w has order prod_c (q^|c| - eps^|c|) over the cycles c of
sigma, with sigma = w for split and sigma(j) = w(n-1-j) for unitary, again
divided once by q - eps for SL (ch. 3).  The generic degree f_w is the exact
quotient of the q'-part of the order by the torus order:

    f_w = prod_{i=1..n} (q^i - eps^i) / prod_c (q^|c| - eps^|c|).

The SL factor q - eps cancels, so f_w is the same for GL_n and SL_n, and so
are their candidate sets and `repzoo lietype` stdout.  The candidate set
collects (1/|W|) sum a_w f_w over the integer box |a_w| <= floor(|W|^(3/2)),
deduplicated, pruned to polynomials positive at q = 2^20 and sorted as tuples.
The box is enumerated on int codes, one byte per coefficient, of integer vectors
(the f_w scaled by the lcm of their denominators), and the candidate set keeps
the sorted codes: the JSON is rendered from their bytes, and the vectors over
one denominator are decoded only when read.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass

from .characters import _cycles, character_degrees
from .groups import GroupScheme, build_group
from .localring import RingSpec
from .polynomials import RationalPoly

_TWISTS = ("split", "unitary")


class UnsupportedTwistError(ValueError):
    pass


class CandidateBudgetError(ValueError):
    pass


@dataclass(frozen=True)
class RootDatum:
    """Type-A root datum for GL(n) (rank n) or SL(n) (rank n-1)."""

    family: str
    n: int
    rank: int

    @property
    def n_positive(self) -> int:
        return self.n * (self.n - 1) // 2


def root_datum(family: str, n: int) -> RootDatum:
    if family not in ("GL", "SL"):
        raise ValueError(f"root datum only for GL/SL, got {family!r}")
    return RootDatum(family, n, n if family == "GL" else n - 1)


def _sign(twist: str) -> int:
    """eps = 1 for the split form, -1 for the unitary one."""
    if twist not in _TWISTS:
        raise UnsupportedTwistError(f"twist must be one of {_TWISTS}, got {twist!r}")
    return 1 if twist == "split" else -1


# -- polynomial ingredients -------------------------------------------------------


def order_polynomial_parts(
    datum: RootDatum, twist: str = "split"
) -> tuple[RationalPoly, int]:
    """(p'-part polynomial, N) with |G^F| = p'-part * q^N: the p'-part is
    prod_{i<=n} (q^i - eps^i), divided once by q - eps for SL."""
    eps = _sign(twist)
    x = RationalPoly.x()
    part = RationalPoly.one()
    for i in range(1, datum.n + 1):
        part = part * (x**i - eps**i)
    return part.exact_div((x - eps) ** (datum.n - datum.rank)), datum.n_positive


def order_polynomial(datum: RootDatum, twist: str = "split") -> RationalPoly:
    """|G^F| as an exact polynomial in q."""
    part, n_pos = order_polynomial_parts(datum, twist)
    return part * RationalPoly.monomial(n_pos)


def torus_order(datum: RootDatum, twist: str, w: tuple[int, ...]) -> RationalPoly:
    """|T_0[w]| = |det(q * (w tau) - 1)| on the character lattice, for w a
    permutation of 0..n-1.

    On Z^n, w tau e_j = eps e_sigma(j) with sigma = w for split and
    sigma(j) = w(n-1-j) for unitary, so the determinant is the product of
    q^|c| - eps^|c| over the cycles c of sigma.  For SL, X = Z^n / Z(1, .., 1),
    and w tau acts on the line Z(1, .., 1) by eps, which takes out q - eps."""
    eps = _sign(twist)
    n = datum.n
    sigma = w[::eps]  # j -> w(n - 1 - j) for unitary
    x = RationalPoly.x()
    order = RationalPoly.one()
    for c in _cycles(sigma):
        order = order * (x ** len(c) - eps ** len(c))
    return order.exact_div((x - eps) ** (n - datum.rank))


def generic_degrees(datum: RootDatum, twist: str = "split") -> Counter[RationalPoly]:
    """{f_w: #w} over all w in W = S_n, with f_w the q'-part of [G^F : T_0[w]].
    Both are products of factors with a positive leading coefficient, so
    f_w has one too.  f_w depends only on the cycle type of sigma = w[::eps],
    so it is divided out once per type, from the first w of that type."""
    part, _ = order_polynomial_parts(datum, twist)
    eps = _sign(twist)
    types: dict[tuple[int, ...], list] = {}  # cycle type -> [first w, #w]
    for w in itertools.permutations(range(datum.n)):
        types.setdefault(tuple(sorted(map(len, _cycles(w[::eps])))), [w, 0])[1] += 1
    degrees: Counter[RationalPoly] = Counter()
    for w, count in types.values():
        degrees[part.exact_div(torus_order(datum, twist, w))] += count
    return degrees


# -- candidate set ----------------------------------------------------------------


# the coefficient box is enumerated only up to this many points (GL3 and SL3 have
# 140 505, GL4 and SL4 about 6.1e14), and a candidate is kept when positive at q = 2^20
_BOX_LIMIT = 2 * 10**6
_POSITIVITY_PROBE = 2**20
# polynomials per write of CandidateSet.write_json (GL3: about 160 kB)
_WRITE_BATCH = 2048


@dataclass
class CandidateSet:
    """Polynomials (1/|W|) sum_w a_w f_w with |a_w| <= floor(|W|^{3/2}),
    ascending as tuples, so (6,) comes before (6, -56, -56, 22) in GL3 split.

    The key (c_0, .., c_d) stands for sum_k (c_k / denominator) q^k, with no
    trailing zero, and is stored as its code: ``width`` big-endian bytes,
    c_k + ``offset`` up to c_d and 0 after, so the codes ascend as the keys do."""

    codes: list[int]
    width: int
    offset: int
    denominator: int
    bound: int
    weyl_order: int

    @property
    def polynomials(self) -> tuple[tuple[int, ...], ...]:
        """The keys, decoded from the codes on each read."""
        off = itertools.repeat(self.offset)
        return tuple(tuple(map(operator.sub, k.to_bytes(self.width, "big").rstrip(b"\0"), off))
                     for k in self.codes)

    def scaled_values(self, q: int) -> set[int]:
        """denominator * p(q) over the candidates p, by Horner on the code bytes."""
        values, off = set(), self.offset
        for k in self.codes:
            value = 0
            for b in k.to_bytes(self.width, "big").rstrip(b"\0")[::-1]:
                value = value * q + b - off
            values.add(value)
        return values

    def write_json(self, write, indent: str) -> None:
        """Write {"bound", "polys", "weyl_order"} as json.dumps(..., indent=2,
        sort_keys=True) renders it when it starts on a line indented by
        ``indent``; each polynomial is an array of "num/den" strings.  The text
        goes to ``write`` in batches of _WRITE_BATCH keys, never whole (GL3
        split: 5.58 MB), each read off the bytes of its codes."""
        den, off, row = self.denominator, self.offset, indent + "    "
        close = f"\n{row}]"
        # byte b is the coefficient b - off, quoted as Fraction's "num/den"; byte 0
        # (a trimmed zero) renders nothing, and a key's first byte closes the key before it
        text = [f'"{c // math.gcd(c, den)}/{den // math.gcd(c, den)}"' for c in range(1 - off, off)]
        tables = [[""] + [f"{close},\n{row}[\n{row}  {t}" for t in text]]
        tables += [[""] + [f",\n{row}  {t}" for t in text]] * (self.width - 1)
        # never "[]" (all a_w = 1 sum to a positive f); "," leads every batch but the first
        lead = f'{{\n{indent}  "bound": {self.bound},\n{indent}  "polys": ['
        for start in range(0, len(self.codes), _WRITE_BATCH):
            batch = self.codes[start:start + _WRITE_BATCH]
            blob = b"".join(map(int.to_bytes, batch, itertools.repeat(self.width), itertools.repeat("big")))
            write(lead + "".join(map(operator.getitem, itertools.cycle(tables), blob))[len(close) + 1:] + close)
            lead = ","
        write(f'\n{indent}  ],\n{indent}  "weyl_order": {self.weyl_order}\n{indent}}}')


def candidate_set(datum: RootDatum, twist: str = "split") -> CandidateSet:
    """Enumerate the coefficient box, grouped by equal f_w so the box stays small.

    Grouping by the distinct generic degrees is exact: a_w enters only through
    sum a_w f_w, so per distinct polynomial f only the aggregate coefficient in
    [-mult * bound, mult * bound] matters.

    The box runs on integer coefficient vectors: with L the lcm of the
    coefficient denominators of the distinct f, each point is c = sum a_i L f_i
    and its candidate is c / (L |W|), kept when c(_POSITIVITY_PROBE) > 0: the
    scale is positive, so the sign test is exact.  Every L f_i(probe) > 0
    (checked), so the kept points of each outer combination are a suffix of the
    last level, cut by one exact floor division.  A point is carried as its sort
    code sum_k (c_k + off) 256^(w-1-k), linear in the point, with off = B + 1 and
    B = sum_i reach_i max|L f_i| >= |c_k|, so c_k + off is one byte (checked:
    2B + 2 <= 256; B = 98 for GL3).  The level of widest reach runs innermost, so
    the suffixes are few and long (GL3: 1 653 of up to 85 points).  The codes
    are collected in one list, their trailing bytes off (zero coefficients) set
    to 0 in place so the ints sort as the trimmed tuples do, sorted, and rid of
    adjacent duplicates; CandidateSet keeps them, over the denominator L |W|.
    """
    weyl_order = math.factorial(datum.n)
    bound = math.isqrt(weyl_order**3)
    distinct = sorted(generic_degrees(datum, twist).items(), key=lambda kv: kv[0].coeffs)
    total = 1
    for _f, mult in distinct:
        total *= 2 * mult * bound + 1
    if total > _BOX_LIMIT:
        raise CandidateBudgetError(
            f"{datum.family}{datum.n} {twist}: the coefficient box has {total} points, "
            f"beyond the enumeration limit of {_BOX_LIMIT}"
        )
    scale = math.lcm(*(c.denominator for f, _mult in distinct for c in f.coeffs))
    width = max(len(f.coeffs) for f, _mult in distinct)
    # off - 1 bounds every |c_k|; per distinct f: (reach, code(L f), L f(probe))
    off, levels = 1, []
    for f, mult in distinct:
        scaled = [c * scale for c in f.coeffs]
        if any(c.denominator != 1 for c in scaled):
            raise AssertionError(f"{scale} does not clear the denominators of {f.pretty()}")
        step = [int(c) for c in scaled] + [0] * (width - len(scaled))
        code = at_probe = 0
        for c, c_top in zip(step, reversed(step)):
            code = code * 256 + c
            at_probe = at_probe * _POSITIVITY_PROBE + c_top
        if at_probe <= 0:
            raise AssertionError(f"{f.pretty()} is not positive at q = {_POSITIVITY_PROBE}")
        levels.append((mult * bound, code, at_probe))
        off += mult * bound * max(map(abs, step))
    if 2 * off > 256:
        raise AssertionError(f"coefficients up to {off - 1} do not fit one byte")
    # the level of widest reach runs innermost, so the runs are few and long
    widest = max(range(len(levels)), key=lambda i: levels[i][0])
    reach, code, value = levels.pop(widest)
    # each outer combination as (its code with off in every byte, its probe value)
    bases = [(off * (256**width - 1) // 255, 0)]
    for r, c, v in levels:
        bases = [(bc + a * c, bv + a * v) for bc, bv in bases for a in range(-r, r + 1)]
    inner = [a * code for a in range(-reach, reach + 1)]
    codes: list[int] = []
    for base_code, base_value in bases:
        start = max(0, (-base_value) // value + 1 + reach)
        codes.extend(map(operator.add, itertools.repeat(base_code), inner[start:]))
    # a kept point is not zero, so no key loses every byte
    for i, k in enumerate(codes):
        if k & 255 == off:
            codes[i] = int.from_bytes(k.to_bytes(width, "big").rstrip(bytes([off])).ljust(width, b"\0"), "big")
    codes.sort()
    # equal points of the box are adjacent once sorted
    codes = [k for k, _ in itertools.groupby(codes)]
    return CandidateSet(codes, width, off, scale * weyl_order, bound, weyl_order)


@dataclass
class ContainmentReport:
    scheme: str
    twist: str
    results: tuple[tuple[int, bool, tuple[int, ...]], ...]  # (q, contained, missing degrees)

    @property
    def all_contained(self) -> bool:
        return all(ok for _, ok, _ in self.results)

    def to_json(self) -> dict:
        return {
            "scheme": self.scheme,
            "twist": self.twist,
            "results": [
                {"q": q, "contained": ok, "missing": list(miss)}
                for q, ok, miss in self.results
            ],
        }


def require_split(twist: str) -> None:
    """Raise UnsupportedTwistError unless containment can be verified under twist."""
    if twist != "split":
        raise UnsupportedTwistError(
            "containment verification runs on split forms (the scheme menu has no unitary schemes)"
        )


def verify_containment(
    scheme: GroupScheme, twist: str, cands: CandidateSet, q_list, budget: int = 10**7
) -> ContainmentReport:
    """Check dimirr(G(F_q)) against the evaluations of ``cands``, the candidate
    set of the scheme's root datum under ``twist``, at each listed q."""
    require_split(twist)
    results = []
    for q in q_list:
        group = build_group(scheme, RingSpec.for_q(q, 1), budget)
        degrees = character_degrees(group).degrees_set()
        values = cands.scaled_values(q)
        missing = tuple(sorted(d for d in degrees if d * cands.denominator not in values))
        results.append((q, not missing, missing))
    return ContainmentReport(scheme.label(), twist, tuple(results))

