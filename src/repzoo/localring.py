"""Finite quotient rings o/p^r of local fields, all built one way.

Each ring is W(F_q)[pi]/(pi^e - p, pi^r), where W(F_q) is the unramified
extension of Z_p with residue field F_q = F_p[x]/h(x), q = p^f, h the least
monic irreducible of degree f mod p (default_modulus).  A spec's kind fixes e:

unramified(p, f, r)   : e = 1, the Galois ring Z[x]/(p^r, h(x)).
eqchar(p, f, r)       : e = r, so p = pi^r = 0 and the ring is F_q[t]/(t^r).
eisenstein(p, f, e, r): e from the spec, tame (p does not divide e).

Elements are canonical coordinate tuples of ints, so they hash and compare
cheaply; all arithmetic is exact.  Rings are immutable after construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from typing import Iterator

_TABLE_LIMIT = 256  # build full add/mul tables when the ring is this small


class RingConstructionError(ValueError):
    """Invalid ring specification (bad prime, bad level, wild ramification)."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, f) with n = p^f and f >= 1, or None when n is not a prime power:
    f is the largest k whose integer k-th root r (by bisection) has r^k = n
    and r prime, so the cost is polynomial in log n, not in sqrt(n)."""
    for k in range(n.bit_length() - 1, 0, -1):
        lo, hi = 1, 1 << (n.bit_length() // k + 1)
        while lo < hi:  # the largest r with r^k <= n
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if mid**k <= n else (lo, mid - 1)
        if lo**k == n and is_prime(lo):
            return lo, k
    return None


# -- polynomials over F_p (dense int tuples, ascending, no trailing zeros) -----


def fp_trim(a: list[int]) -> tuple[int, ...]:
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def fp_sub(a, b, p):
    return fp_trim([(x - y) % p for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def fp_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return fp_trim(out)


def fp_divmod(a, m, p):
    """(quotient, remainder) of a by m over F_p, by long division."""
    a = [x % p for x in a]
    dm = len(m) - 1
    if len(a) <= dm:
        return (), fp_trim(a)
    inv = 1 if m[-1] == 1 else pow(m[-1], -1, p)
    quotient = [0] * (len(a) - dm)
    # each step clears a[k]; only a[:dm], the remainder, is read afterwards
    for k in range(len(a) - 1, dm - 1, -1):
        c = a[k] * inv % p
        if c:
            quotient[k - dm] = c
            for j in range(dm):
                a[k - dm + j] = (a[k - dm + j] - c * m[j]) % p
    return fp_trim(quotient), fp_trim(a[:dm])


def fp_mod(a, m, p):
    return fp_divmod(a, m, p)[1]


def fp_div(a, m, p):
    """The exact quotient a / m over F_p; raises unless m divides a."""
    quotient, remainder = fp_divmod(a, m, p)
    if remainder:
        raise AssertionError(f"{m} does not divide {a} over F_{p}")
    return quotient


def fp_powmod(a, n, m, p):
    """a^n mod m, squaring from the top bit of n down, so a multiplies in
    only as itself: a cheap product when a is linear."""
    if not n:
        return (1,)
    base = result = fp_mod(a, m, p)
    for bit in bin(n)[3:]:
        result = fp_mod(fp_mul(result, result, p), m, p)
        if bit == "1":
            result = fp_mod(fp_mul(result, base, p), m, p)
    return result


def fp_gcd(a, b, p):
    """Monic gcd over F_p."""
    a, b = fp_trim([x % p for x in a]), fp_trim([x % p for x in b])
    while b:
        a, b = b, fp_mod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = tuple(x * inv % p for x in a)
    return a


def fp_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Irreducibility over F_p via the Frobenius criterion."""
    f = len(poly) - 1
    if f < 1 or poly[-1] % p == 0:
        return False
    if f == 1:
        return True
    x = (0, 1)
    # x^(p^f) == x mod poly
    xq = x
    for _ in range(f):
        xq = fp_powmod(xq, p, poly, p)
    if fp_sub(xq, x, p):
        return False
    for ell in {d for d in range(2, f + 1) if f % d == 0 and is_prime(d)}:
        xq = x
        for _ in range(f // ell):
            xq = fp_powmod(xq, p, poly, p)
        diff = fp_sub(xq, x, p)
        g = fp_gcd(poly, diff, p) if diff else poly
        if len(g) - 1 > 0:
            return False
    return True


@cache
def default_modulus(p: int, f: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree f over F_p."""
    if f == 1:
        return (0, 1)
    for code in range(p**f):
        coeffs = []
        c = code
        for _ in range(f):
            coeffs.append(c % p)
            c //= p
        poly = tuple(coeffs) + (1,)
        if fp_irreducible(poly, p):
            return poly
    raise RingConstructionError(f"no irreducible of degree {f} over F_{p}")


# -- ring specification -------------------------------------------------------

_KINDS = ("unramified", "eqchar", "eisenstein")


@dataclass(frozen=True)
class RingSpec:
    """Specification of a finite quotient ring o/p^r."""

    kind: str
    p: int
    f: int
    r: int
    e: int = 1

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise RingConstructionError(f"unknown ring kind {self.kind!r}")
        if not is_prime(self.p):
            raise RingConstructionError(f"{self.p} is not prime")
        if self.f < 1 or self.r < 1:
            raise RingConstructionError("need f >= 1 and r >= 1")
        if self.kind == "eisenstein":
            if self.e < 2:
                raise RingConstructionError("eisenstein ramification needs e >= 2")
            if self.e % self.p == 0:
                raise RingConstructionError(
                    f"wild ramification unsupported: {self.p} divides e={self.e}"
                )
        elif self.e != 1:
            raise RingConstructionError("e != 1 only makes sense for eisenstein")

    @property
    def q(self) -> int:
        return self.p**self.f

    @property
    def size(self) -> int:
        return self.q**self.r

    @property
    def blocks(self) -> int:
        """The e of the layout: pi^e = p, and e = r in equal characteristic."""
        return self.r if self.kind == "eqchar" else self.e

    def additive_order_of_one(self) -> int:
        """p^ceil(r/e), the additive order of 1 in o/p^r, read off the spec."""
        return self.p ** -(-self.r // self.blocks)

    def at_level(self, level: int) -> "RingSpec":
        return RingSpec(self.kind, self.p, self.f, level, self.e)

    def label(self) -> str:
        short = {"unramified": "unram", "eqchar": "eqchar", "eisenstein": "eis"}[self.kind]
        if self.kind == "eisenstein":
            return f"{short}:{self.p},{self.f},{self.e},{self.r}"
        return f"{short}:{self.p},{self.f},{self.r}"

    @classmethod
    def for_q(cls, q: int, r: int) -> "RingSpec":
        """The unramified ring of level r with residue field F_q."""
        split = prime_power(q)
        if split is None:
            raise RingConstructionError(f"{q} is not a prime power")
        return cls("unramified", *split, r)

    @classmethod
    def parse(cls, text: str) -> "RingSpec":
        """Parse CLI ring notation like unram:3,1,2 / eqchar:3,1,2 / eis:3,1,2,2."""
        try:
            short, rest = text.split(":")
            nums = [int(x) for x in rest.split(",")]
        except ValueError as exc:
            raise RingConstructionError(f"cannot parse ring spec {text!r}") from exc
        kinds = {"unram": "unramified", "eqchar": "eqchar", "eis": "eisenstein"}
        if short not in kinds:
            raise RingConstructionError(f"unknown ring kind {short!r}")
        if short == "eis":
            if len(nums) != 4:
                raise RingConstructionError("eisenstein spec needs p,f,e,r")
            p, f, e, r = nums
            return cls("eisenstein", p, f, r, e)
        if len(nums) != 3:
            raise RingConstructionError(f"{short} spec needs p,f,r")
        p, f, r = nums
        return cls(kinds[short], p, f, r)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "p": self.p,
            "f": self.f,
            "e": self.e,
            "r": self.r,
            "modulus": list(default_modulus(self.p, self.f)),
        }


# -- the ring itself -----------------------------------------------------------


class QuotientRing:
    """Enumerated finite local ring W(F_q)[pi]/(pi^e - p, pi^r) with exact
    coordinate arithmetic.

    An element is sum_{i<e} pi^i c_i with c_i in W(F_q)/p^(l_i), where
    l_i = ceil((r - i)/e) is the level of pi-block i; block i holds the f
    coordinates of c_i mod p^(l_i).  Elements are referred to by ordinal index
    into `self.elements` (lexicographically sorted coordinate tuples).
    """

    def __init__(self, spec: RingSpec):
        self.spec = spec
        self.p = spec.p
        self.f = spec.f
        self.r = spec.r
        self.q = spec.q
        self.size = spec.size
        self.modulus = default_modulus(spec.p, spec.f)
        self.e = spec.blocks

        alpha, beta = divmod(self.r, self.e)
        self._ranges = tuple(
            self.p ** (alpha + 1 if i < beta else alpha)
            for i in range(self.e)
            for _ in range(self.f)
        )
        self.elements: list[tuple[int, ...]] = [
            tuple(t) for t in itertools.product(*[range(m) for m in self._ranges])
        ]
        if len(self.elements) != self.size:
            raise AssertionError(f"{len(self.elements)} elements for a ring of size {self.size}")
        self.index = {t: i for i, t in enumerate(self.elements)}
        self.zero = self.from_coords(())
        self.one = self.from_coords((1,))

        self._inv_cache: dict[int, int] = {}
        # add_table[i][j] and mul_table[i][j], or None above _TABLE_LIMIT
        if self.size <= _TABLE_LIMIT:
            els = self.elements
            self.add_table = [
                [self.index[self._add_raw(a, b)] for b in els] for a in els
            ]
            self.mul_table = [
                [self.index[self._mul_raw(a, b)] for b in els] for a in els
            ]
        else:
            self.add_table = None
            self.mul_table = None
        self._neg_table = [
            self.index[tuple((-c) % m for c, m in zip(t, self._ranges))]
            for t in self.elements
        ]

    def from_coords(self, coords) -> int:
        """Index of the element whose leading coordinates are coords, the rest zero."""
        return self.index[tuple(coords) + (0,) * (len(self._ranges) - len(coords))]

    # -- raw tuple arithmetic ----------------------------------------------

    def _add_raw(self, a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, self._ranges))

    def _unram_mul(self, a, b, pr):
        """Multiply length-f vectors as polys mod (modulus, pr)."""
        f = self.f
        if f == 1:
            return ((a[0] * b[0]) % pr,)
        out = [0] * (2 * f - 1)
        for i in range(f):
            ai = a[i]
            if ai:
                for j in range(f):
                    out[i + j] = (out[i + j] + ai * b[j]) % pr
        h = self.modulus
        for k in range(2 * f - 2, f - 1, -1):
            c = out[k]
            if c:
                out[k] = 0
                for j in range(f):
                    out[k - f + j] = (out[k - f + j] - c * h[j]) % pr
        return tuple(out[:f])

    def _mul_raw(self, a, b):
        # pi^i c_i * pi^j c_j lands in block i + j, as p pi^(i+j-e) in block
        # i + j - e once i + j >= e, and is 0 once i + j >= r
        e, f, r = self.e, self.f, self.r
        big = self._ranges[0]
        out = [0] * (e * f)
        for i in range(e):
            ca = a[i * f : (i + 1) * f]
            if not any(ca):
                continue
            for j in range(min(e, r - i)):
                cb = b[j * f : (j + 1) * f]
                if any(cb):
                    k = i + j
                    scale, base = (1, k * f) if k < e else (self.p, (k - e) * f)
                    for t, c in enumerate(self._unram_mul(ca, cb, big), base):
                        out[t] += scale * c
        return tuple(c % m for c, m in zip(out, self._ranges))

    # -- public index arithmetic ---------------------------------------------

    def add(self, i: int, j: int) -> int:
        if self.add_table is not None:
            return self.add_table[i][j]
        return self.index[self._add_raw(self.elements[i], self.elements[j])]

    def mul(self, i: int, j: int) -> int:
        if self.mul_table is not None:
            return self.mul_table[i][j]
        return self.index[self._mul_raw(self.elements[i], self.elements[j])]

    def neg(self, i: int) -> int:
        return self._neg_table[i]

    def sub(self, i: int, j: int) -> int:
        return self.add(i, self._neg_table[j])

    def from_int(self, n: int) -> int:
        """Image of the integer n under Z -> ring."""
        acc = self.zero
        one = self.one
        n_mod = n % self.additive_order_of_one()
        for _ in range(n_mod):
            acc = self.add(acc, one)
        return acc

    # -- residue field & units --------------------------------------------------

    def residue_coords(self, i: int) -> tuple[int, ...]:
        """Image in F_q as a length-f vector over F_p."""
        return tuple(c % self.p for c in self.elements[i][: self.f])

    def is_unit(self, i: int) -> bool:
        return any(self.residue_coords(i))

    def units(self) -> Iterator[int]:
        return (i for i in range(self.size) if self.is_unit(i))

    def maximal_ideal(self) -> list[int]:
        return [i for i in range(self.size) if not self.is_unit(i)]

    def inv(self, i: int) -> int:
        """Inverse of a unit: residue-field inverse plus Hensel lifting."""
        cached = self._inv_cache.get(i)
        if cached is not None:
            return cached
        if not self.is_unit(i):
            raise ZeroDivisionError("not a unit")
        # a^(q-2) in F_q = F_p[x]/modulus
        x = self.from_coords(fp_powmod(self.residue_coords(i), self.q - 2, self.modulus, self.p))
        # Newton: x <- x(2 - a x), converges since the maximal ideal is nilpotent
        two = self.from_int(2)
        steps = (max(self.r, 2) - 1).bit_length() + 1
        for _ in range(steps):
            x = self.mul(x, self.sub(two, self.mul(i, x)))
        if self.mul(i, x) != self.one:
            raise AssertionError(f"Newton lift of the inverse of {i} failed")
        self._inv_cache[i] = x
        return x

    # -- structure maps -----------------------------------------------------------

    def additive_order_of_one(self) -> int:
        return self.spec.additive_order_of_one()

    def reduce_to(self, level: int) -> tuple["QuotientRing", list[int]]:
        """Quotient ring at a lower level plus the index map realizing it."""
        if not 1 <= level <= self.r:
            raise ValueError(f"level must be in 1..{self.r}")
        target = make_ring(self.spec.at_level(level))
        # each target block is the same block here reduced to the target's
        # level; an eqchar target has fewer blocks, as pi^i = 0 for i >= level
        moduli = target._ranges
        mapping = [
            target.index[tuple(c % m for c, m in zip(t, moduli))] for t in self.elements
        ]
        return target, mapping


def make_ring(spec: RingSpec) -> QuotientRing:
    """The ring for a spec, built once per process."""
    return _ring(spec)


_ring = cache(QuotientRing)


# -- Eisenstein truncation isomorphism ------------------------------------------


@dataclass
class TruncationIso:
    """Result of the e >= r check: the map F_q[t]/t^r -> Eisenstein ring, t to pi."""

    isomorphic: bool
    source_spec: RingSpec | None = None
    target_spec: RingSpec | None = None

    def apply(self, source_ring: QuotientRing, target_ring: QuotientRing, i: int) -> int:
        """Image of source element i under the isomorphism (t maps to pi)."""
        if not self.isomorphic:
            raise ValueError("no isomorphism exists")
        # the eqchar layout is the e = r layout, and target blocks r..e-1 have
        # level 0, so x^a t^i -> x^a pi^i pads the coordinates with zeros
        return target_ring.from_coords(source_ring.elements[i])


def iso_check_truncated(spec: RingSpec) -> TruncationIso:
    """Decide o/pi^r ~ F_q[t]/t^r for an Eisenstein spec; true iff e >= r.

    When true, returns the map sending t to pi and the residue-field basis to
    itself, verified as a ring isomorphism.
    """
    if spec.kind != "eisenstein":
        raise ValueError("iso_check_truncated expects an eisenstein spec")
    if spec.e < spec.r:
        # p = pi^e is nonzero in the quotient, but p = 0 in F_q[t]/t^r
        return TruncationIso(isomorphic=False)

    target = make_ring(spec)
    source_spec = RingSpec("eqchar", spec.p, spec.f, spec.r)
    source = make_ring(source_spec)
    iso = TruncationIso(True, source_spec, spec)

    # verify: unital, multiplicative on all pairs of the F_p-basis x^a t^i, injective
    basis = [source.from_coords((0,) * k + (1,)) for k in range(spec.r * spec.f)]
    img = {s: iso.apply(source, target, s) for s in basis}
    if iso.apply(source, target, source.one) != target.one:
        raise AssertionError("truncation map does not send 1 to 1")
    for s1 in basis:
        for s2 in basis:
            lhs = iso.apply(source, target, source.mul(s1, s2))
            rhs = target.mul(img[s1], img[s2])
            if lhs != rhs:
                raise AssertionError("truncation map failed multiplicativity check")
    # F_p-linear map with independent basis images is injective on a q^r-set
    if len(set(img.values())) != len(basis):
        raise AssertionError("truncation map is not injective on basis")
    return iso
