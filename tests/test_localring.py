import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import repzoo
from repzoo.localring import (
    RingConstructionError,
    RingSpec,
    fp_div,
    fp_divmod,
    fp_mod,
    fp_mul,
    is_prime,
    iso_check_truncated,
    make_ring,
    prime_power,
)


@pytest.mark.parametrize(
    "q, split",
    [(2, (2, 1)), (4, (2, 2)), (9, (3, 2)), (25, (5, 2)), (49, (7, 2)),
     (1, None), (0, None), (6, None), (12, None)],
)
def test_prime_power_and_for_q(q, split):
    assert prime_power(q) == split
    if split is None:
        with pytest.raises(RingConstructionError, match="not a prime power"):
            RingSpec.for_q(q, 2)
    else:
        assert RingSpec.for_q(q, 2) == RingSpec("unramified", *split, 2)


def test_is_prime_and_prime_power_against_trial_division():
    for n in range(-2, 3000):
        divisors = [d for d in range(2, n + 1) if n % d == 0]
        assert is_prime(n) == (divisors[:1] == [n])
        powers = [(d, f) for d in divisors[:1] for f in range(1, n.bit_length()) if d**f == n]
        assert prime_power(n) == (powers[0] if powers else None)
    assert RingSpec.for_q(37, 1) == RingSpec("unramified", 37, 1, 1)


def test_prime_power_of_large_numbers():
    # in a subprocess with a timeout, as trial division up to sqrt(n) would
    # take hours on the prime 10^20 + 39 and minutes on the semiprime
    # (10^9 + 7)(10^9 + 9)
    cases = {
        100000000000000000039: (100000000000000000039, 1),
        1000000016000000063: None,
        3**40: (3, 40),
        2**89 - 1: (2**89 - 1, 1),
        (2**61 - 1) ** 2: (2**61 - 1, 2),
        (2**31 - 1) ** 3 * 2: None,
        1: None,
        10**18: None,
    }
    code = f"from repzoo.localring import prime_power; print([prime_power(n) for n in {list(cases)}])"
    env = {**os.environ, "PYTHONPATH": str(Path(repzoo.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(list(cases.values()))


def test_z9_basics():
    ring = make_ring(RingSpec("unramified", 3, 1, 2))
    assert ring.size == 9
    assert ring.additive_order_of_one() == 9
    assert sum(1 for _ in ring.units()) == 6


def test_eqchar_basics():
    ring = make_ring(RingSpec("eqchar", 3, 1, 2))
    assert ring.size == 9
    assert ring.additive_order_of_one() == 3
    assert sum(1 for _ in ring.units()) == 6


def test_galois_ring_gr_4_2():
    ring = make_ring(RingSpec("unramified", 2, 2, 2))
    assert ring.size == 16
    assert sum(1 for _ in ring.units()) == 12


def test_eqchar_2_1_3_units():
    ring = make_ring(RingSpec("eqchar", 2, 1, 3))
    assert sum(1 for _ in ring.units()) == 4


def test_eisenstein_units_and_char():
    ring = make_ring(RingSpec("eisenstein", 3, 1, 2, 2))
    assert ring.size == 9
    assert sum(1 for _ in ring.units()) == 6
    assert ring.additive_order_of_one() == 3  # e >= r: equal characteristic


@pytest.mark.parametrize(
    "spec",
    [
        RingSpec("unramified", 2, 1, 3),
        RingSpec("unramified", 3, 2, 2),
        RingSpec("eqchar", 2, 2, 2),
        RingSpec("eisenstein", 3, 1, 3, 2),
        RingSpec("eisenstein", 5, 1, 2, 3),
        # above the table limit: arithmetic through the raw coordinate product
        RingSpec.parse("unram:2,1,11"),
        RingSpec.parse("eqchar:2,1,11"),
        RingSpec.parse("eis:3,1,2,7"),
    ],
)
def test_ring_axioms_and_unit_count(spec):
    ring = make_ring(spec)
    assert ring.size == spec.q**spec.r
    assert sum(1 for _ in ring.units()) == ring.size - ring.size // ring.q
    rng = random.Random(0)
    for _ in range(200):
        a, b, c = (rng.randrange(ring.size) for _ in range(3))
        assert ring.mul(a, ring.mul(b, c)) == ring.mul(ring.mul(a, b), c)
        assert ring.mul(a, b) == ring.mul(b, a)
        assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
    for u in ring.units():
        assert ring.mul(u, ring.inv(u)) == ring.one


@pytest.mark.parametrize(
    "spec,charval",
    [
        (RingSpec("unramified", 3, 1, 2), 9),
        (RingSpec("eqchar", 3, 1, 2), 3),
        (RingSpec("eisenstein", 3, 1, 3, 2), 9),   # ceil(3/2) = 2 -> 3^2
        (RingSpec("eisenstein", 5, 1, 4, 3), 25),  # ceil(4/3) = 2
    ],
)
def test_characteristic(spec, charval):
    ring = make_ring(spec)
    # additive order of 1 by repeated addition
    acc, n = ring.one, 1
    while acc != ring.zero:
        acc = ring.add(acc, ring.one)
        n += 1
    assert n == charval == ring.additive_order_of_one()


@pytest.mark.parametrize(
    "spec",
    [
        RingSpec("unramified", 2, 1, 3),
        RingSpec("eqchar", 3, 1, 2),
        RingSpec("eisenstein", 3, 1, 3, 2),
        RingSpec("eqchar", 2, 1, 3),  # reduces to levels with fewer pi-blocks
    ],
)
def test_reduction_is_surjective_hom_with_uniform_fibers(spec):
    ring = make_ring(spec)
    for level in range(1, spec.r):
        target, mapping = ring.reduce_to(level)
        fibers = Counter(mapping)
        assert len(fibers) == target.size
        assert set(fibers.values()) == {ring.size // target.size}
        rng = random.Random(1)
        for _ in range(100):
            a, b = rng.randrange(ring.size), rng.randrange(ring.size)
            assert mapping[ring.add(a, b)] == target.add(mapping[a], mapping[b])
            assert mapping[ring.mul(a, b)] == target.mul(mapping[a], mapping[b])


def test_iso_check_true_when_e_ge_r():
    result = iso_check_truncated(RingSpec("eisenstein", 5, 1, 2, 2))
    assert result.isomorphic
    src = make_ring(result.source_spec)
    tgt = make_ring(result.target_spec)
    images = [result.apply(src, tgt, i) for i in range(src.size)]
    assert len(set(images)) == src.size
    rng = random.Random(2)
    for _ in range(300):
        a, b = rng.randrange(src.size), rng.randrange(src.size)
        assert images[src.mul(a, b)] == tgt.mul(images[a], images[b])
        assert images[src.add(a, b)] == tgt.add(images[a], images[b])


def test_iso_check_false_when_e_lt_r():
    result = iso_check_truncated(RingSpec("eisenstein", 3, 1, 3, 2))
    assert not result.isomorphic
    # witness: p is nonzero in the quotient because e < r
    ring = make_ring(RingSpec("eisenstein", 3, 1, 3, 2))
    assert ring.from_int(3) != ring.zero


def test_iso_check_large_residue_field():
    assert iso_check_truncated(RingSpec("eisenstein", 7, 2, 3, 3)).isomorphic


def test_spec_validation():
    with pytest.raises(RingConstructionError):
        RingSpec("unramified", 4, 1, 1)  # not prime
    with pytest.raises(RingConstructionError):
        RingSpec("eisenstein", 3, 1, 2, 3)  # p | e (wild)


def test_spec_serialization_round_trip():
    spec = RingSpec("eisenstein", 3, 2, 2, 2)
    assert RingSpec.parse(spec.label()) == spec
    # the modulus is always the default one, and stays in the cache key
    assert spec.to_json() == {"kind": "eisenstein", "p": 3, "f": 2, "e": 2, "r": 2, "modulus": [1, 0, 1]}
    assert RingSpec.parse("unram:3,1,2") == RingSpec("unramified", 3, 1, 2)
    assert RingSpec.parse("eis:3,1,2,2") == RingSpec("eisenstein", 3, 1, 2, 2)


def test_fp_divmod_is_long_division():
    rng = random.Random(5)
    for p in (2, 7, 313):
        for _ in range(200):
            a = tuple(rng.randrange(p) for _ in range(rng.randrange(0, 12)))
            m = tuple(rng.randrange(p) for _ in range(rng.randrange(0, 5))) + (rng.randrange(1, p),)
            quotient, remainder = fp_divmod(a, m, p)
            assert len(remainder) < len(m)
            product = fp_mul(quotient, m, p)
            total = [(x + y) % p for x, y in zip(product + (0,) * len(a), remainder + (0,) * len(a))]
            assert tuple(total[: len(a)]) == a and not any(total[len(a):])
            assert fp_mod(a, m, p) == remainder


def test_fp_div_is_the_exact_quotient():
    # (x + 1)(2x^2 + 3) = 2x^3 + 2x^2 + 3x + 3 over F_7
    assert fp_div((3, 3, 2, 2), (1, 1), 7) == (3, 0, 2)
    assert fp_div((3, 3, 2, 2), (3, 0, 2), 7) == (1, 1)


def test_an_inexact_fp_div_raises_under_optimize():
    # python -O strips assert statements; the check must still raise
    code = "from repzoo.localring import fp_div; fp_div((4, 3, 2, 2), (1, 1), 7)"
    env = {**os.environ, "PYTHONPATH": str(Path(repzoo.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode != 0
    assert "AssertionError: (1, 1) does not divide (4, 3, 2, 2) over F_7" in proc.stderr
