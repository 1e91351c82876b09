"""Type-A root data, twisted Weyl groups, and generic degree polynomials.

The finite-group order of GL_n / SL_n over F_q (split or unitary-twisted) is
assembled from the standard factorization

    |G^F| = |center^F| * q^N * prod_J (q^|J| - 1) * sum_{w in W^F} q^l(w),

with J running over the twist's orbits on simple roots.  The twisted torus
order |T_w^F| is the lattice determinant |det(q * w tau - 1)|.  On X = Z^n,
w tau is eps times the permutation matrix of some sigma (eps = 1 split,
-1 unitary), so the determinant is the cycle product prod_c (q^|c| - eps^|c|)
over the cycles c of sigma, divided once by q - eps for SL (Carter, Finite
Groups of Lie Type, ch. 3).  The generic degree f_w is the exact quotient of
the q'-part of the order by the torus order.  The candidate set collects
(1/|W|) sum a_w f_w over the integer box |a_w| <= floor(|W|^(3/2)),
deduplicated and pruned to polynomials positive at q = 2^20.  The box is
enumerated on integer coefficient vectors (the f_w scaled by the lcm of their
denominators), and the candidates stay integer vectors over one common
denominator through verification and rendering.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass

from .characters import _cycles, character_degrees
from .groups import GroupScheme, build_group
from .intlinalg import identity_matrix, mat_vec
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
    simple_roots: tuple[tuple[int, ...], ...]
    simple_coroots: tuple[tuple[int, ...], ...]

    @property
    def n_positive(self) -> int:
        return self.n * (self.n - 1) // 2


def root_datum(family: str, n: int) -> RootDatum:
    if family == "GL":
        roots = []
        coroots = []
        for i in range(n - 1):
            v = [0] * n
            v[i], v[i + 1] = 1, -1
            roots.append(tuple(v))
            coroots.append(tuple(v))
        return RootDatum("GL", n, n, tuple(roots), tuple(coroots))
    if family == "SL":
        # X = Z^n / Z(1,..,1) with basis the images of e_1..e_{n-1}
        roots = []
        coroots = []
        for i in range(n - 1):
            lift = [0] * n
            lift[i], lift[i + 1] = 1, -1
            roots.append(_project_sl(lift, n))
            # coroot e_i - e_{i+1} acts as a functional on the quotient
            func = [0] * (n - 1)
            if i < n - 1:
                func[i] = 1
            if i + 1 < n - 1:
                func[i + 1] = -1
            coroots.append(tuple(func))
        return RootDatum("SL", n, n - 1, tuple(roots), tuple(coroots))
    raise ValueError(f"root datum only for GL/SL, got {family!r}")


def _project_sl(vec: list[int], n: int) -> tuple[int, ...]:
    """Coordinates of vec mod (1,..,1) in the basis of images of e_1..e_{n-1}."""
    return tuple(vec[i] - vec[n - 1] for i in range(n - 1))


def _tau_matrix_gl(n: int) -> list[list[int]]:
    """Unitary twist on X(T) = Z^n: e_j -> -e_{n+1-j}."""
    m = [[0] * n for _ in range(n)]
    for j in range(n):
        m[n - 1 - j][j] = -1
    return m


def _push_to_sl(mat_gl: list[list[int]], n: int) -> list[list[int]]:
    """Induced matrix on Z^n/(1,..,1) in the e_1..e_{n-1} image basis."""
    cols = []
    for j in range(n - 1):
        lift = [0] * n
        lift[j] = 1
        img = mat_vec(mat_gl, lift)
        cols.append(_project_sl(img, n))
    return [[cols[c][r] for c in range(n - 1)] for r in range(n - 1)]


@dataclass
class TwistedWeylGroup:
    """Weyl group of a type-A datum with an optional graph twist."""

    datum: RootDatum
    twist: str
    perms: tuple[tuple[int, ...], ...]          # all of W as permutations of 0..n-1
    lengths: tuple[int, ...]
    tau: tuple[tuple[int, ...], ...]            # lattice automorphism
    fixed: tuple[int, ...]                      # indices of W^F = {w : w tau = tau w}
    root_orbits: tuple[tuple[int, ...], ...]    # tau-orbits of simple roots

    @property
    def order(self) -> int:
        return len(self.perms)

    def length_sum_poly(self) -> RationalPoly:
        """sum of q^l(w) over W^F."""
        coeffs = Counter(self.lengths[i] for i in self.fixed)
        return RationalPoly([coeffs[k] for k in range(max(coeffs) + 1)])


def _inversions(perm: tuple[int, ...]) -> int:
    n = len(perm)
    return sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])


def _sign(twist: str) -> int:
    """eps with tau = eps * (the permutation matrix of 1 or w0) on Z^n."""
    if twist not in _TWISTS:
        raise UnsupportedTwistError(f"twist must be one of {_TWISTS}, got {twist!r}")
    return 1 if twist == "split" else -1


def weyl_group(datum: RootDatum, twist: str = "split") -> TwistedWeylGroup:
    """Full Weyl group S_n with exact lengths and the twist's tau-action.

    The unitary tau is -w0 with w0(j) = n-1-j, and S_n acts faithfully on X,
    so w tau = tau w exactly when w commutes with w0."""
    eps = _sign(twist)
    n = datum.n
    perms = tuple(itertools.permutations(range(n)))
    tau_m = identity_matrix(n) if eps == 1 else _tau_matrix_gl(n)
    if datum.family == "SL":
        tau_m = _push_to_sl(tau_m, n)
    tau = tuple(tuple(row) for row in tau_m)
    lengths = tuple(_inversions(p) for p in perms)
    fixed = tuple(
        i
        for i, p in enumerate(perms)
        if eps == 1 or all(p[n - 1 - j] == n - 1 - p[j] for j in range(n))
    )
    orbits = _simple_root_orbits(datum, tau_m)
    return TwistedWeylGroup(datum, twist, perms, lengths, tau, fixed, orbits)


def _simple_root_orbits(datum: RootDatum, tau_m) -> tuple[tuple[int, ...], ...]:
    """tau permutes simple roots; return its orbits (split: all singletons)."""
    roots = datum.simple_roots
    images = [tuple(mat_vec(tau_m, list(root))) for root in roots]
    if sorted(images) != sorted(roots):
        raise AssertionError("twist does not permute the simple roots")
    return tuple(map(tuple, _cycles([roots.index(img) for img in images])))


# -- polynomial ingredients -------------------------------------------------------


def center_order_poly(datum: RootDatum, twist: str = "split") -> RationalPoly:
    """|(Z^o)^F| as a polynomial in q: tau acts by eps on X / (saturated root
    sublattice), of rank rank - #simple roots (for GL, the coordinate sum)."""
    x = RationalPoly.x()
    return (x - _sign(twist)) ** (datum.rank - len(datum.simple_roots))


def order_polynomial_parts(
    datum: RootDatum, twist: str = "split"
) -> tuple[RationalPoly, int]:
    """(p'-part polynomial, N) with |G^F| = p'-part * q^N."""
    w = weyl_group(datum, twist)
    zc = center_order_poly(datum, twist)
    x = RationalPoly.x()
    orbit_factor = RationalPoly.one()
    for orb in w.root_orbits:
        orbit_factor = orbit_factor * (x ** len(orb) - 1)
    return zc * orbit_factor * w.length_sum_poly(), datum.n_positive


def order_polynomial(datum: RootDatum, twist: str = "split") -> RationalPoly:
    """|G^F| as an exact polynomial in q."""
    part, n_pos = order_polynomial_parts(datum, twist)
    return part * RationalPoly.monomial(n_pos)


def torus_order(datum: RootDatum, twist: str, w_index: int) -> RationalPoly:
    """|T_0[w]| = |det(q * (w tau) - 1)| on the character lattice.

    On Z^n, w tau e_j = eps e_sigma(j) with sigma = w for split and
    sigma(j) = w(n-1-j) for unitary, so the determinant is the product of
    q^|c| - eps^|c| over the cycles c of sigma.  For SL, X = Z^n / Z(1, .., 1),
    and w tau acts on the line Z(1, .., 1) by eps, which takes out q - eps."""
    eps = _sign(twist)
    n = datum.n
    w = weyl_group(datum, twist).perms[w_index]
    sigma = w if eps == 1 else [w[n - 1 - j] for j in range(n)]
    x = RationalPoly.x()
    order = RationalPoly.one()
    for c in _cycles(sigma):
        order = order * (x ** len(c) - eps ** len(c))
    return order.exact_div((x - eps) ** (n - datum.rank))


def dl_degree(datum: RootDatum, twist: str, w_index: int) -> RationalPoly:
    """Generic degree f_w: the q'-part of [G^F : T_0[w]].  Both are products
    of factors with a positive leading coefficient, so f_w has one too."""
    part, _ = order_polynomial_parts(datum, twist)
    return part.exact_div(torus_order(datum, twist, w_index))


# -- candidate set ----------------------------------------------------------------


# the coefficient box is enumerated only up to this many points (GL3 and SL3 have
# 140 505, GL4 and SL4 about 6.1e14), and a candidate is kept when positive at q = 2^20
_BOX_LIMIT = 2 * 10**6
_POSITIVITY_PROBE = 2**20


@dataclass
class CandidateSet:
    """Polynomials (1/|W|) sum_w a_w f_w with |a_w| <= floor(|W|^{3/2}),
    ascending by coefficient tuple.

    Each polynomial is stored as its numerator vector over ``denominator``:
    the key (c_0, .., c_d) stands for sum_k (c_k / denominator) q^k, with no
    trailing zero."""

    polynomials: tuple[tuple[int, ...], ...]
    denominator: int
    bound: int
    weyl_order: int

    def scaled_values(self, q: int) -> set[int]:
        """denominator * p(q) over the candidates p, by Horner on the keys."""
        values = set()
        for key in self.polynomials:
            value = 0
            for c in reversed(key):
                value = value * q + c
            values.add(value)
        return values

    def to_json(self) -> dict:
        # the polynomials share few coefficient values (GL3 split: 168 among
        # 280 154), so each value is rendered once, as Fraction's "num/den"
        den = self.denominator
        text = {}
        for c in set().union(*self.polynomials):
            g = math.gcd(c, den)
            text[c] = f"{c // g}/{den // g}"
        return {
            "polys": [list(map(text.__getitem__, key)) for key in self.polynomials],
            "bound": self.bound,
            "weyl_order": self.weyl_order,
        }


def candidate_set(datum: RootDatum, twist: str = "split") -> CandidateSet:
    """Enumerate the coefficient box, grouped by equal f_w so the box stays small.

    Grouping by the distinct generic degrees is exact: a_w enters only through
    sum a_w f_w, so per distinct polynomial f only the aggregate coefficient in
    [-mult*B, mult*B] matters.

    The box runs on integer coefficient vectors: with L the lcm of the
    coefficient denominators of the distinct f, each point is c = sum a_i L f_i
    and its candidate is c / (L |W|).  A point is kept when c is positive at
    q = _POSITIVITY_PROBE; the scale is positive, so testing c's sign there is
    exact.  That value is linear in the point, so each level carries
    a_i L f_i(probe) beside its vector and the test is one sum.  The candidates
    stay integer vectors over the denominator L |W|.
    """
    w = weyl_group(datum, twist)
    bound = math.isqrt(w.order**3)
    fs = Counter(dl_degree(datum, twist, wi) for wi in range(w.order))
    distinct = sorted(fs.items(), key=lambda kv: kv[0].coeffs)
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
    # per distinct f, each aggregate a as (a * L * f padded to width, a * L * f(probe))
    levels = []
    for f, mult in distinct:
        scaled = [c * scale for c in f.coeffs]
        if any(c.denominator != 1 for c in scaled):
            raise AssertionError(f"{scale} does not clear the denominators of {f.pretty()}")
        step = [int(c) for c in scaled] + [0] * (width - len(scaled))
        at_probe = 0
        for c in reversed(step):
            at_probe = at_probe * _POSITIVITY_PROBE + c
        reach = mult * bound
        levels.append([([a * c for c in step], a * at_probe) for a in range(-reach, reach + 1)])
    *outer_levels, inner = levels
    found: set[tuple[int, ...]] = set()
    for outer in itertools.product(*outer_levels):
        base = [sum(col) for col in zip([0] * width, *(vec for vec, _value in outer))]
        base_value = sum(value for _vec, value in outer)
        for vec, value in inner:
            if base_value + value > 0:
                found.add(tuple(map(operator.add, base, vec)))
    # the padded vectors are deduplicated first; a kept point is not zero
    keys = []
    for padded in found:
        top = width
        while not padded[top - 1]:
            top -= 1
        keys.append(padded[:top])
    # ascending int keys give ascending Fraction coefficients: the scale is positive
    keys.sort()
    return CandidateSet(tuple(keys), scale * w.order, bound, w.order)


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

