import hashlib
import itertools
import json
import math
import operator
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

import repzoo.cli
import repzoo.lietype
from repzoo.characters import _cycles
from repzoo.groups import GroupScheme
from repzoo.intlinalg import identity_matrix, smith_normal_form
from repzoo.lietype import (
    CandidateBudgetError,
    UnsupportedTwistError,
    candidate_set,
    generic_degrees,
    order_polynomial,
    order_polynomial_parts,
    root_datum,
    torus_order,
    verify_containment,
)
from repzoo.localring import RingSpec, make_ring
from repzoo.polynomials import RationalPoly

x = RationalPoly.x()

# -- the Weyl-group and lattice route, the reference for the closed forms ---------
#
# X = Z^n for GL and Z^n / Z(1, .., 1) for SL, on the basis of the images of
# e_1..e_{n-1}.  The unitary tau is e_j -> -e_{n+1-j}; W = S_n acts by
# permutation matrices.  |G^F| = |center^F| * q^N * prod_J (q^|J| - 1) *
# sum_{w in W^F} q^l(w), with J running over tau's orbits on the simple roots.


def _project_sl(vec, n):
    """Coordinates of vec mod (1,..,1) in the basis of images of e_1..e_{n-1}."""
    return tuple(vec[i] - vec[n - 1] for i in range(n - 1))


def _mat_vec(a, v):
    return [sum(s * t for s, t in zip(row, v)) for row in a]


def _mat_mul(a, b):
    return [[sum(s * t for s, t in zip(row, col)) for col in zip(*b)] for row in a]


def _perm_matrix(perm):
    """The matrix of e_j -> e_perm(j) on Z^n."""
    n = len(perm)
    return [[1 if perm[j] == i else 0 for j in range(n)] for i in range(n)]


def _tau_matrix_gl(n):
    """Unitary twist on Z^n: e_j -> -e_{n+1-j}."""
    m = [[0] * n for _ in range(n)]
    for j in range(n):
        m[n - 1 - j][j] = -1
    return m


def _on_x(datum, mat_gl):
    """The matrix induced on X by a matrix on Z^n that keeps Z(1, .., 1)."""
    n = datum.n
    if datum.family == "GL":
        return mat_gl
    cols = []
    for j in range(n - 1):
        lift = [0] * n
        lift[j] = 1
        cols.append(_project_sl(_mat_vec(mat_gl, lift), n))
    return [[cols[c][r] for c in range(n - 1)] for r in range(n - 1)]


def _simple_roots(datum):
    """The images in X of e_i - e_{i+1}."""
    n = datum.n
    roots = []
    for i in range(n - 1):
        v = [0] * n
        v[i], v[i + 1] = 1, -1
        roots.append(tuple(v) if datum.family == "GL" else _project_sl(v, n))
    return tuple(roots)


def _inversions(perm):
    n = len(perm)
    return sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])


def _walked_orbits(images):
    """The orbits of i -> images[i] by an explicit walk."""
    seen, orbits = set(), []
    for i in range(len(images)):
        if i in seen:
            continue
        orb = [i]
        seen.add(i)
        j = images[i]
        while j not in seen:
            orb.append(j)
            seen.add(j)
            j = images[j]
        orbits.append(tuple(orb))
    return tuple(orbits)


class _Weyl:
    """W = S_n with inversion lengths, tau on X, W^F and tau's simple-root orbits."""

    def __init__(self, datum, twist):
        n = datum.n
        self.datum = datum
        self.perms = tuple(itertools.permutations(range(n)))
        self.lengths = tuple(_inversions(p) for p in self.perms)
        self.tau = _on_x(datum, identity_matrix(n) if twist == "split" else _tau_matrix_gl(n))
        self.mats = [_on_x(datum, _perm_matrix(p)) for p in self.perms]
        self.fixed = tuple(
            i for i, m in enumerate(self.mats) if _mat_mul(m, self.tau) == _mat_mul(self.tau, m)
        )
        self.roots = _simple_roots(datum)
        images = [tuple(_mat_vec(self.tau, r)) for r in self.roots]
        # the twist permutes the simple roots
        assert sorted(images) == sorted(self.roots)
        self.root_orbits = _walked_orbits([self.roots.index(img) for img in images])

    @property
    def order(self):
        return len(self.perms)

    def length_sum_poly(self):
        """sum of q^l(w) over W^F."""
        coeffs = Counter(self.lengths[i] for i in self.fixed)
        return RationalPoly([coeffs[k] for k in range(max(coeffs) + 1)])


def _laplace_det(entries):
    """det of a square matrix of RationalPolys by expansion along the first row."""
    if not entries:
        return RationalPoly.one()
    det = RationalPoly.zero()
    for j, c in enumerate(entries[0]):
        if c:
            det = det + c * _laplace_det([row[:j] + row[j + 1 :] for row in entries[1:]]) * (-1) ** j
    return det


def _lattice_det(mat):
    """|det(q * mat - 1)| over Q[q], with a positive leading coefficient."""
    n = len(mat)
    det = _laplace_det([[x * mat[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)])
    return -det if det.leading < 0 else det


def _lattice_center_order(w):
    """|(Z^o)^F| = |det(q * tau - 1)| for tau on X / (saturated root sublattice),
    whose coordinates are the last rank - s of U x, for U from a Smith form of
    the simple roots (s of them nonzero)."""
    if not w.roots:
        return _lattice_det(w.tau)
    rank = w.datum.rank
    u, d, u_inv = smith_normal_form([[root[r] for root in w.roots] for r in range(rank)])
    s = sum(1 for i in range(len(w.roots)) if d[i][i])
    ut = _mat_mul(_mat_mul(u, w.tau), u_inv)
    # tau keeps the root sublattice
    assert all(ut[i][j] == 0 for i in range(s, rank) for j in range(s))
    return _lattice_det([row[s:] for row in ut[s:]])


def _reference_order_parts(datum, twist):
    """(p'-part, N) from the center, tau's root orbits and the lengths on W^F;
    N is the length of the longest element."""
    w = _Weyl(datum, twist)
    orbit_factor = RationalPoly.one()
    for orb in w.root_orbits:
        orbit_factor = orbit_factor * (x ** len(orb) - 1)
    return _lattice_center_order(w) * orbit_factor * w.length_sum_poly(), max(w.lengths)


def test_weyl_group_sizes_and_lengths():
    w2 = _Weyl(root_datum("GL", 2), "split")
    assert w2.order == 2 and sorted(w2.lengths) == [0, 1]
    w3 = _Weyl(root_datum("GL", 3), "split")
    assert w3.order == 6 and sorted(w3.lengths) == [0, 1, 1, 2, 2, 3]


def test_lengths_equal_bfs_distance():
    # inversion count must agree with word length over the simple generators
    for n in (2, 3, 4):
        w = _Weyl(root_datum("GL", n), "split")
        gens = [
            w.perms.index(tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, n)))
            for i in range(n - 1)
        ]
        # BFS over the Cayley graph on permutation indices
        comp = {w.perms.index(tuple(range(n))): 0}
        frontier = [w.perms.index(tuple(range(n)))]
        while frontier:
            nxt = []
            for pidx in frontier:
                for g in gens:
                    prod = tuple(w.perms[pidx][w.perms[g][j]] for j in range(n))
                    qidx = w.perms.index(prod)
                    if qidx not in comp:
                        comp[qidx] = comp[pidx] + 1
                        nxt.append(qidx)
            frontier = nxt
        for i in range(w.order):
            assert comp[i] == w.lengths[i]


def test_unitary_twist_fixed_subgroup():
    w3 = _Weyl(root_datum("GL", 3), "unitary")
    assert len(w3.fixed) == 2
    fixed_lengths = sorted(w3.lengths[i] for i in w3.fixed)
    assert fixed_lengths == [0, 3]  # identity and the longest element


@pytest.mark.parametrize("twist", ["split", "unitary"])
@pytest.mark.parametrize("family,n", [("GL", 1), ("GL", 2), ("GL", 3), ("SL", 2), ("SL", 3)])
def test_root_orbits_match_the_orbit_walk(family, n, twist):
    # the walked orbits are those of alpha_i -> alpha_i (split) or
    # alpha_i -> alpha_{n-2-i} (unitary)
    w = _Weyl(root_datum(family, n), twist)
    k = n - 1
    image = (lambda i: i) if twist == "split" else (lambda i: k - 1 - i)
    assert w.root_orbits == tuple(tuple(sorted({i, image(i)})) for i in range(k) if i <= image(i))
    if n == 3:
        # the unitary twist swaps alpha_1 and alpha_2
        assert w.root_orbits == (((0,), (1,)) if twist == "split" else ((0, 1),))


def test_unsupported_twist():
    datum = root_datum("GL", 2)
    with pytest.raises(UnsupportedTwistError):
        order_polynomial_parts(datum, "triality")
    with pytest.raises(UnsupportedTwistError):
        torus_order(datum, "triality", (0, 1))


def test_poincare_identity():
    # the split twist fixes all of W, so the length sum at q = 1 is |W|
    for n in (2, 3, 4):
        w = _Weyl(root_datum("GL", n), "split")
        assert len(w.fixed) == w.order
        assert w.length_sum_poly()(1) == w.order


@pytest.mark.parametrize("twist", ["split", "unitary"])
@pytest.mark.parametrize(
    "family,n", [("GL", n) for n in range(1, 7)] + [("SL", n) for n in range(2, 7)]
)
def test_closed_form_order_matches_the_weyl_group_route(family, n, twist):
    datum = root_datum(family, n)
    assert order_polynomial_parts(datum, twist) == _reference_order_parts(datum, twist)


def test_order_polynomials_closed_forms():
    assert order_polynomial(root_datum("GL", 1)) == x - 1
    assert order_polynomial(root_datum("GL", 2)) == x**4 - x**3 - x**2 + x
    assert order_polynomial(root_datum("SL", 2)) == x**3 - x
    gu2 = order_polynomial(root_datum("GL", 2), "unitary")
    gu3 = order_polynomial(root_datum("GL", 3), "unitary")
    for q in (2, 3, 5):
        assert gu2(q) == q * (q - 1) * (q + 1) ** 2
        assert gu3(q) == q**3 * (q + 1) * (q * q - 1) * (q**3 + 1)


def _brute_force_gl_count(n, spec):
    ring = make_ring(spec)
    count = 0
    for mat in itertools.product(range(ring.size), repeat=n * n):
        from repzoo.groups import _mat_det

        if ring.is_unit(_mat_det(ring, n, mat)):
            count += 1
    return count


@pytest.mark.parametrize("q,p,f", [(2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1)])
def test_gl2_order_poly_against_brute_force(q, p, f):
    poly = order_polynomial(root_datum("GL", 2))
    assert poly(q) == _brute_force_gl_count(2, RingSpec("unramified", p, f, 1))


@pytest.mark.parametrize("q,p,f", [(2, 2, 1), (3, 3, 1)])
def test_gl3_order_poly_against_brute_force(q, p, f):
    poly = order_polynomial(root_datum("GL", 3))
    assert poly(q) == _brute_force_gl_count(3, RingSpec("unramified", p, f, 1))


def test_center_polynomials():
    # the Smith-form center of the reference route
    assert _lattice_center_order(_Weyl(root_datum("GL", 2), "split")) == x - 1
    assert _lattice_center_order(_Weyl(root_datum("GL", 2), "unitary")) == x + 1
    assert _lattice_center_order(_Weyl(root_datum("SL", 2), "split")) == RationalPoly.one()


def test_torus_orders_gl2():
    datum = root_datum("GL", 2)
    assert torus_order(datum, "split", (0, 1)) == (x - 1) * (x - 1)
    assert torus_order(datum, "split", (1, 0)) == x * x - 1
    assert torus_order(root_datum("GL", 1), "split", (0,)) == x - 1


def test_twisted_torus_count_matches_field_enumeration():
    # the s-twisted torus is F_{q^2}^*: count units of the degree-2 field extension
    poly = torus_order(root_datum("GL", 2), "split", (1, 0))
    for p in (2, 3):
        big_field = make_ring(RingSpec("unramified", p, 2, 1))
        assert poly(p) == sum(1 for _ in big_field.units())


def test_split_torus_count_matches_diagonal_enumeration():
    poly = torus_order(root_datum("GL", 2), "split", (0, 1))
    for p in (2, 3, 5):
        field = make_ring(RingSpec("unramified", p, 1, 1))
        units = sum(1 for _ in field.units())
        assert poly(p) == units * units


def test_torus_order_constant_on_twisted_conjugacy_classes():
    # sigma (w tau) sigma^{-1} realizes the tau-twisted conjugate of w
    for n in (2, 3):
        datum = root_datum("GL", n)
        for twist in ("split", "unitary"):
            w = _Weyl(datum, twist)
            wtau = [_mat_mul(m, w.tau) for m in w.mats]
            orders = [torus_order(datum, twist, p) for p in w.perms]
            for i in range(w.order):
                for s in range(w.order):
                    sinv = w.perms.index(_inv(w.perms[s]))
                    conj = _mat_mul(_mat_mul(w.mats[s], wtau[i]), w.mats[sinv])
                    j = wtau.index(conj)
                    assert orders[i] == orders[j]


def _inv(perm):
    out = [0] * len(perm)
    for i, v in enumerate(perm):
        out[v] = i
    return tuple(out)


@pytest.mark.parametrize("twist", ["split", "unitary"])
@pytest.mark.parametrize(
    "family,n", [("GL", n) for n in range(1, 6)] + [("SL", n) for n in range(2, 6)]
)
def test_cycle_products_match_the_lattice_route(family, n, twist):
    # w tau on X from permutation matrices on Z^n, pushed to Z^n / (1, .., 1) for SL
    datum = root_datum(family, n)
    w = _Weyl(datum, twist)
    for p, m in zip(w.perms, w.mats):
        assert torus_order(datum, twist, p) == _lattice_det(_mat_mul(m, w.tau))


def test_dl_degrees_gl2():
    assert generic_degrees(root_datum("GL", 2)) == Counter({x + 1: 1, x - 1: 1})
    assert generic_degrees(root_datum("GL", 1)) == Counter({RationalPoly.one(): 1})


def test_dl_division_exact_everywhere():
    for n in (2, 3, 4):
        for fam in ("GL", "SL"):
            datum = root_datum(fam, n)
            for twist in ("split", "unitary"):
                fs = generic_degrees(datum, twist)
                assert sum(fs.values()) == math.factorial(n)
                assert all(f.leading > 0 for f in fs)


@pytest.mark.parametrize("twist", ["split", "unitary"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generic_degrees_are_the_cycle_type_quotients(n, twist):
    # f_w = prod_i (q^i - eps^i) / prod_c (q^|c| - eps^|c|), the same for GL_n and SL_n
    eps = 1 if twist == "split" else -1
    top = RationalPoly.one()
    for i in range(1, n + 1):
        top = top * (x**i - eps**i)
    expected = Counter()
    for sigma in itertools.permutations(range(n)):
        bottom = RationalPoly.one()
        for c in _cycles(sigma):
            bottom = bottom * (x ** len(c) - eps ** len(c))
        expected[top.exact_div(bottom)] += 1
    assert generic_degrees(root_datum("GL", n), twist) == expected
    assert generic_degrees(root_datum("SL", n), twist) == expected


def test_dl_degrees_occur_in_dimirr():
    from repzoo.characters import character_degrees
    from repzoo.groups import build_group

    for q in (2, 3, 5):
        degrees = character_degrees(
            build_group(GroupScheme("GL", 2), RingSpec("unramified", q, 1, 1))
        ).degrees_set()
        # q - 1 degenerates to the trivial degree at q = 2; the q + 1 row has
        # multiplicity (q-1)(q-2)/2, which vanishes at q = 2
        assert (q - 1 if q > 2 else 1) in degrees
        if q > 2:
            assert q + 1 in degrees


def _as_polys(cands):
    """The candidates as RationalPolys: each key is a numerator vector over cands.denominator."""
    return tuple(
        RationalPoly(Fraction(c, cands.denominator) for c in key) for key in cands.polynomials
    )


def test_candidate_set_gl1():
    cands = candidate_set(root_datum("GL", 1))
    assert set(_as_polys(cands)) == {RationalPoly.one()}


def test_candidate_set_gl2_contents():
    cands = candidate_set(root_datum("GL", 2))
    assert cands.bound == 2 and cands.weyl_order == 2
    assert {RationalPoly.one(), x - 1, x, x + 1} <= set(_as_polys(cands))
    # deterministic across runs
    again = candidate_set(root_datum("GL", 2))
    assert again.polynomials == cands.polynomials
    assert again.denominator == cands.denominator


def _lietype_stdout(argv, capsys):
    assert repzoo.cli.main(["lietype", *argv]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("twist", ["split", "unitary"])
@pytest.mark.parametrize("family", ["GL", "SL"])
def test_candidate_set_json_matches_fraction_route(family, twist, capsys):
    # rank 3 is too slow for the Fraction reference enumeration, but not for
    # rendering each key through RationalPoly
    cands = candidate_set(root_datum(family, 3), twist)
    assert len(cands.polynomials) == 70252
    out = _lietype_stdout(["--family", f"{family}3", "--twist", twist], capsys)
    assert json.loads(out)["candidate_set"]["polys"] == [p.to_json() for p in _as_polys(cands)]


def _candidate_set_reference(cands):
    """The candidate set's JSON object, each key rendered through its Fractions."""
    return {
        "bound": cands.bound,
        "polys": [p.to_json() for p in _as_polys(cands)],
        "weyl_order": cands.weyl_order,
    }


@pytest.mark.parametrize("twist", ["split", "unitary"])
@pytest.mark.parametrize("family", ["GL1", "GL2", "GL3", "SL2", "SL3"])
def test_cli_lietype_stdout_is_json_dumps_of_the_reference(family, twist, capsys):
    scheme = GroupScheme.parse(family)
    cands = candidate_set(root_datum(scheme.family, scheme.n), twist)
    ref = {"candidate_set": _candidate_set_reference(cands)}
    out = _lietype_stdout(["--family", family, "--twist", twist], capsys)
    assert out == json.dumps(ref, indent=2, sort_keys=True) + "\n"


def test_cli_lietype_verify_stdout_is_json_dumps_of_the_reference(capsys):
    # containment is the second key, after the streamed candidate set
    scheme = GroupScheme("GL", 2)
    cands = candidate_set(root_datum("GL", 2))
    ref = {
        "candidate_set": _candidate_set_reference(cands),
        "containment": verify_containment(scheme, "split", cands, [2, 3]).to_json(),
    }
    out = _lietype_stdout(["--family", "GL2", "--verify", "2,3"], capsys)
    assert out == json.dumps(ref, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("family,twist", [("GL1", "split"), ("GL2", "split"), ("GL2", "unitary")])
def test_cli_lietype_stdout_is_the_same_at_every_batch_boundary(family, twist, batch, monkeypatch, capsys):
    # a batch closes its own last key and drops the close that opens its first
    monkeypatch.setattr(repzoo.lietype, "_WRITE_BATCH", batch)
    scheme = GroupScheme.parse(family)
    cands = candidate_set(root_datum(scheme.family, scheme.n), twist)
    ref = {"candidate_set": _candidate_set_reference(cands)}
    out = _lietype_stdout(["--family", family, "--twist", twist], capsys)
    assert out == json.dumps(ref, indent=2, sort_keys=True) + "\n"


def test_cli_lietype_writes_gl3_in_bounded_batches(monkeypatch):
    # the 5.58 MB text is never one string, which would raise peak RSS
    lengths = []

    class Recorder:
        def write(self, text):
            lengths.append(len(text))

    monkeypatch.setattr(sys, "stdout", Recorder())
    assert repzoo.cli.main(["lietype", "--family", "GL3", "--twist", "split"]) == 0
    assert sum(lengths) == 5581052
    assert len(lengths) > 1
    assert max(lengths) <= 2**20


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_candidate_values_match_fraction_route(q):
    cands = candidate_set(root_datum("GL", 2))
    values = {Fraction(v, cands.denominator) for v in cands.scaled_values(q)}
    assert values == {p(q) for p in _as_polys(cands)}


def test_cli_lietype_gl4_box_is_beyond_the_enumeration_limit(capsys):
    # the box size is checked before any point is enumerated
    assert repzoo.cli.main(["lietype", "--family", "GL4"]) == 2
    err = capsys.readouterr().err
    assert "coefficient box has 610820512634125 points" in err
    assert "limit of 2000000" in err


def test_cli_lietype_gl6_box_is_beyond_the_enumeration_limit(capsys):
    assert repzoo.cli.main(["lietype", "--family", "GL6"]) == 2
    assert capsys.readouterr().err == (
        "configuration error: GL6 split: the coefficient box has "
        "77965075331022056004253393285173467880179700524591133083711126773097 points, "
        "beyond the enumeration limit of 2000000\n"
    )


def test_candidate_set_builds_one_order_polynomial(monkeypatch):
    # every f_w of the 120 w in S_5 divides the same p'-part
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return order_polynomial_parts(*args, **kwargs)

    monkeypatch.setattr(repzoo.lietype, "order_polynomial_parts", counted)
    with pytest.raises(CandidateBudgetError):
        candidate_set(root_datum("GL", 5))
    assert len(calls) == 1


@pytest.mark.parametrize("twist", ["split", "unitary"])
def test_candidate_set_divides_once_per_cycle_type(monkeypatch, twist):
    # the 120 w in S_5 fall into the 7 cycle types of the partitions of 5
    calls = []

    def counted(*args):
        calls.append(args)
        return torus_order(*args)

    monkeypatch.setattr(repzoo.lietype, "torus_order", counted)
    with pytest.raises(CandidateBudgetError):
        candidate_set(root_datum("GL", 5), twist)
    assert len(calls) == 7


@pytest.mark.parametrize(
    "scheme,qs",
    [
        (GroupScheme("GL", 2), [2, 3, 5]),
        (GroupScheme("GL", 1), [2, 3, 4, 5, 7, 8, 9]),
        (GroupScheme("SL", 2), [3]),
    ],
)
def test_containment(scheme, qs):
    cands = candidate_set(root_datum(scheme.family, scheme.n))
    report = verify_containment(scheme, "split", cands, qs)
    assert report.all_contained, report.results


def _reference_candidate_set(datum, twist):
    """The candidate set by RationalPoly arithmetic over Fractions, point by point."""
    weyl_order = math.factorial(datum.n)
    bound = math.isqrt(weyl_order**3)
    distinct = sorted(generic_degrees(datum, twist).items(), key=lambda kv: kv[0].coeffs)
    ranges = [range(-mult * bound, mult * bound + 1) for _f, mult in distinct]
    inv_w = Fraction(1, weyl_order)
    polys = set()
    for aggs in itertools.product(*ranges):
        combo = RationalPoly.zero()
        for (f, _mult), a in zip(distinct, aggs):
            if a:
                combo = combo + f * a
        combo = combo * inv_w
        # zero is not positive at the probe either
        if combo(2**20) > 0:
            polys.add(combo)
    return tuple(sorted(polys, key=lambda p: p.coeffs)), bound


@pytest.mark.parametrize("twist", ["split", "unitary"])
@pytest.mark.parametrize("family,n", [("GL", 1), ("GL", 2), ("SL", 2)])
def test_candidate_set_matches_fraction_reference(family, n, twist):
    datum = root_datum(family, n)
    cands = candidate_set(datum, twist)
    polys, bound = _reference_candidate_set(datum, twist)
    assert _as_polys(cands) == polys
    assert cands.bound == bound


def _integer_reference_candidate_set(datum, twist):
    """(keys, denominator, bound, weyl_order) of the candidate set on padded
    integer vectors: each point's vector is built and tested for positivity at
    the probe on its own, the kept vectors are deduplicated as padded tuples,
    then stripped of trailing zeros and sorted as tuples."""
    weyl_order = math.factorial(datum.n)
    bound = math.isqrt(weyl_order**3)
    degrees = repzoo.lietype.generic_degrees(datum, twist)
    distinct = sorted(degrees.items(), key=lambda kv: kv[0].coeffs)
    scale = math.lcm(*(c.denominator for f, _mult in distinct for c in f.coeffs))
    width = max(len(f.coeffs) for f, _mult in distinct)
    levels = []
    for f, mult in distinct:
        scaled = [c * scale for c in f.coeffs]
        assert all(c.denominator == 1 for c in scaled)
        step = [int(c) for c in scaled] + [0] * (width - len(scaled))
        at_probe = sum(c * repzoo.lietype._POSITIVITY_PROBE**k for k, c in enumerate(step))
        reach = mult * bound
        levels.append([([a * c for c in step], a * at_probe) for a in range(-reach, reach + 1)])
    *outer_levels, inner = levels
    found = set()
    for outer in itertools.product(*outer_levels):
        base = [sum(col) for col in zip([0] * width, *(vec for vec, _value in outer))]
        base_value = sum(value for _vec, value in outer)
        for vec, value in inner:
            if base_value + value > 0:
                found.add(tuple(map(operator.add, base, vec)))
    keys = []
    for padded in found:
        top = width
        while not padded[top - 1]:
            top -= 1
        keys.append(padded[:top])
    keys.sort()
    return tuple(keys), scale * weyl_order, bound, weyl_order


def _decoded(cands):
    return cands.polynomials, cands.denominator, cands.bound, cands.weyl_order


@pytest.mark.parametrize("twist", ["split", "unitary"])
@pytest.mark.parametrize("family,n", [("GL", 1), ("GL", 2), ("GL", 3), ("SL", 2), ("SL", 3)])
def test_candidate_set_matches_the_integer_reference(family, n, twist):
    datum = root_datum(family, n)
    assert _decoded(candidate_set(datum, twist)) == _integer_reference_candidate_set(datum, twist)


def test_candidate_keys_ascend_as_trimmed_tuples():
    # a key sorts before every key that extends it; padded with zeros, (6, 0, 0, 0)
    # would sort after (6, -56, -56, 22)
    keys = candidate_set(root_datum("GL", 3)).polynomials
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert keys.index((6,)) < keys.index((6, -56, -56, 22))


def test_candidate_set_codes_fit_one_byte(monkeypatch):
    # GL1 has the one degree 1 with |W| = bound = 1, so mult bounds every
    # coefficient and off = mult + 1; 2 * off <= 256 holds up to mult = 127
    def with_multiplicity(mult):
        degrees = Counter({RationalPoly.one(): mult})
        monkeypatch.setattr(repzoo.lietype, "generic_degrees", lambda datum, twist: degrees)

    with_multiplicity(127)
    cands = candidate_set(root_datum("GL", 1))
    assert _decoded(cands) == _integer_reference_candidate_set(root_datum("GL", 1), "split")
    assert cands.polynomials == tuple((a,) for a in range(1, 128))
    with_multiplicity(128)
    with pytest.raises(AssertionError, match="coefficients up to 128 do not fit one byte"):
        candidate_set(root_datum("GL", 1))


def test_candidate_set_peaks_near_what_it_keeps():
    # the box points are collected in a list, sorted in place: building the GL3
    # split set peaks within 1.5x of the codes it returns (a hash set of them
    # peaked at about 1.9x)
    datum = root_datum("GL", 3)
    candidate_set(datum, "split")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cands = candidate_set(datum, "split")
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cands.codes) == 70252
    assert peak - before <= 1.5 * (kept - before)


def test_candidate_set_refuses_a_degree_not_positive_at_the_probe(monkeypatch):
    # the suffix cut needs every L f(probe) > 0; q - 1 is -1 at q = 0
    monkeypatch.setattr(repzoo.lietype, "_POSITIVITY_PROBE", 0)
    with pytest.raises(AssertionError, match=r"is not positive at q = 0"):
        candidate_set(root_datum("GL", 2))


@pytest.mark.parametrize(
    "argv,digest",
    [
        (["--family", "SL3", "--twist", "split"],
         "9ce9a0ac1aa3e050b2d8a30b538630e6116991139d9a7532b3df2ce90bc2271f"),
        (["--family", "GL3", "--twist", "unitary"],
         "80bfc15966b69952910fb7fff3537f86e4872f6b05538f65acba8d58e5473e95"),
        (["--family", "SL3", "--twist", "unitary"],
         "80bfc15966b69952910fb7fff3537f86e4872f6b05538f65acba8d58e5473e95"),
        (["--family", "GL2", "--verify", "2,3,5"],
         "7b45e02f7163a3c370784eed8827814af111491719d34c3c89bf011aaaea8bde"),
        (["--family", "GL3", "--verify", "2,3"],
         "316514431c70343d1674e116603a362402c44eeeb4e1858cff26f3e61a0be243"),
        (["--family", "GL1", "--twist", "split"],
         "a9ae95e8f3863baef1d2820e906f4b3a51f0a777235071088cc226eb5115e522"),
        (["--family", "GL2", "--twist", "split"],
         "cf5e93154e00721872546e5e8f45d77de1d84d3653e2fcba47318ca1ad3fc0f3"),
        (["--family", "GL2", "--twist", "unitary"],
         "cf5e93154e00721872546e5e8f45d77de1d84d3653e2fcba47318ca1ad3fc0f3"),
        (["--family", "SL2", "--twist", "split"],
         "cf5e93154e00721872546e5e8f45d77de1d84d3653e2fcba47318ca1ad3fc0f3"),
        (["--family", "SL2", "--twist", "unitary"],
         "cf5e93154e00721872546e5e8f45d77de1d84d3653e2fcba47318ca1ad3fc0f3"),
    ],
    ids=[
        "SL3-split", "GL3-unitary", "SL3-unitary", "GL2-verify", "GL3-verify",
        "GL1-split", "GL2-split", "GL2-unitary", "SL2-split", "SL2-unitary",
    ],
)
def test_cli_lietype_digest(argv, digest, capsys):
    assert repzoo.cli.main(["lietype", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _count_candidate_sets(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return candidate_set(*args, **kwargs)

    monkeypatch.setattr(repzoo.cli, "candidate_set", counted)
    monkeypatch.setattr(repzoo.lietype, "candidate_set", counted)
    return calls


def test_cli_lietype_verify_builds_the_candidate_set_once(monkeypatch, capsys):
    calls = _count_candidate_sets(monkeypatch)
    assert repzoo.cli.main(["lietype", "--family", "GL2", "--verify", "2,3"]) == 0
    assert json.loads(capsys.readouterr().out)["containment"]["results"]
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--family", "GL3", "--verify", "6"], "6 is not a prime power"),
        (["--family", "GL3", "--twist", "unitary", "--verify", "2"], "runs on split forms"),
        (["--family", "GL3", "--verify", "2,3", "--budget", "100"], "exceeds budget 100"),
    ],
    ids=["not-prime-power", "unitary", "over-budget"],
)
def test_cli_lietype_rejects_bad_verify_before_the_candidate_set(argv, message, monkeypatch, capsys):
    calls = _count_candidate_sets(monkeypatch)
    assert repzoo.cli.main(["lietype", *argv]) == 2
    assert message in capsys.readouterr().err
    assert calls == []
