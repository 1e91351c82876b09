"""Exact univariate polynomial arithmetic over the rationals.

Everything here is exact: coefficients are `fractions.Fraction`, evaluation
is Horner on exact rationals, interpolation is Lagrange in exact arithmetic.
Polynomials are kept in canonical form (no trailing zero coefficient); the
zero polynomial has an empty coefficient tuple.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Rat = Union[int, Fraction]


class MalformedSampleError(ValueError):
    """Raised for interpolation input with duplicate arguments."""


class RationalPoly:
    """Immutable polynomial over Q, coefficients ascending by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat] = ()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "RationalPoly":
        return cls(())

    @classmethod
    def one(cls) -> "RationalPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "RationalPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, k: int, c: Rat = 1) -> "RationalPoly":
        return cls((0,) * k + (c,))

    # -- basic structure ----------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __setattr__(self, name, value):
        raise AttributeError("RationalPoly is immutable")

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        # Fractions are kept in lowest terms, so equal polynomials have equal
        # pairs; Fraction.__hash__ would pay a modular inverse per coefficient
        return hash(tuple((c.numerator, c.denominator) for c in self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"RationalPoly({self.pretty()})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "RationalPoly":
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return RationalPoly(
            (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalPoly":
        return RationalPoly(-c for c in self.coeffs)

    def __sub__(self, other) -> "RationalPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "RationalPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "RationalPoly":
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return RationalPoly.zero()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return RationalPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "RationalPoly":
        if k < 0:
            raise ValueError("negative power")
        result = RationalPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __call__(self, x: Rat) -> Fraction:
        """Exact Horner evaluation."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divmod(self, other: "RationalPoly") -> tuple["RationalPoly", "RationalPoly"]:
        """Exact polynomial division with remainder."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        dd = len(div) - 1
        if len(rem) - 1 < dd:
            return RationalPoly.zero(), self
        quot = [Fraction(0)] * (len(rem) - dd)
        inv_lead = 1 / div[-1]
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k] * inv_lead
            quot[k - dd] = c
            if c == 0:
                continue
            for j in range(dd + 1):
                rem[k - dd + j] -= c * div[j]
        return RationalPoly(quot), RationalPoly(rem)

    def exact_div(self, other: "RationalPoly") -> "RationalPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError(f"inexact polynomial division: remainder {r.pretty()}")
        return q

    # -- serialization & display -----------------------------------------

    def to_json(self) -> list[str]:
        """JSON form: array of "num/den" strings ascending by degree."""
        return [f"{c.numerator}/{c.denominator}" for c in self.coeffs]

    def pretty(self, var: str = "x") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                term = str(c)
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                xs = var if k == 1 else f"{var}^{k}"
                term = f"{mag}{xs}"
                if c < 0:
                    term = "-" + term if not parts else term
            if not parts:
                parts.append(term if (k == 0 or c > 0) else f"-{term.lstrip('-')}")
            else:
                parts.append(("- " if c < 0 else "+ ") + term.lstrip("-"))
        return " ".join(parts)


def _coerce(v) -> RationalPoly:
    if isinstance(v, RationalPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return RationalPoly((v,))
    raise TypeError(f"cannot coerce {type(v)!r} to RationalPoly")


def interpolate(samples: Iterable[tuple[Rat, Rat]]) -> RationalPoly:
    """Unique polynomial of degree < #points through the (argument, value)
    samples (exact Lagrange); the arguments must be distinct."""
    pts = sorted((int(x), Fraction(y)) for x, y in samples)
    for (x0, _), (x1, _) in zip(pts, pts[1:]):
        if x0 == x1:
            raise MalformedSampleError(f"duplicate sample argument {x0}")
    if not pts:
        raise MalformedSampleError("empty sample set")
    result = RationalPoly.zero()
    for i, (xi, yi) in enumerate(pts):
        if yi == 0:
            continue
        num = RationalPoly.one()
        den = Fraction(1)
        for j, (xj, _) in enumerate(pts):
            if j == i:
                continue
            num = num * RationalPoly((-xj, 1))
            den *= xi - xj
        result = result + num * (yi / den)
    return result

