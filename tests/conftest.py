import random

import pytest

import hyptorsion.poly as poly
from hyptorsion.curve import new_model
from hyptorsion.errors import BadModelError
from hyptorsion.exactnum import QQ, prime_field
from hyptorsion.poly import Poly, ZZ


@pytest.fixture
def ex1_model():
    """y^2 + y = x^5, genus 2."""
    return new_model(QQ, Poly.of_ints(QQ, [0, 0, 0, 0, 0, 1]), Poly.of_ints(QQ, [1]))


@pytest.fixture
def ex2_model():
    """y^2 = x^5 - x, genus 2."""
    return new_model(QQ, Poly.of_ints(QQ, [0, -1, 0, 0, 0, 1]), Poly.zero(QQ))


@pytest.fixture
def ex5_model():
    """y^2 + y = x^7, genus 3."""
    return new_model(QQ, Poly.of_ints(QQ, [0] * 7 + [1]), Poly.of_ints(QQ, [1]))


X051_P = [72074394832896, 4946281998336, 136819425024, 2122416000, 21016080, 136272, 536, 1]


@pytest.fixture
def x051_model():
    """Genus-3 quotient modular curve; good reduction away from 2, 3, 17."""
    return new_model(QQ, Poly.of_ints(QQ, X051_P), Poly.zero(QQ))


def random_integral_model(g, rng, coeff_bound=5):
    """Random smooth integer model of genus g (possibly with Q != 0)."""
    while True:
        P = Poly.of_ints(QQ, [rng.randint(-coeff_bound, coeff_bound) for _ in range(2 * g + 1)] + [1])
        Q = Poly.of_ints(QQ, [rng.randint(-3, 3) for _ in range(rng.randint(0, g + 1))])
        try:
            return new_model(QQ, P, Q)
        except BadModelError:
            continue


def random_prime_field_model(p, g, rng):
    gf = prime_field(p)
    while True:
        P = Poly.of_ints(gf, [rng.randrange(p) for _ in range(2 * g + 1)] + [1])
        Q = Poly.of_ints(gf, [rng.randrange(p) for _ in range(rng.randint(0, g + 1))])
        try:
            return new_model(gf, P, Q)
        except BadModelError:
            continue


def classical_division_polys(a, b, nmax):
    """Oracle: classical division polynomials of y^2 = x^3 + ax + b.

    Returns w_N with w_N = psi_N for odd N and psi_N/(2y) for even N, as
    x-polynomials over ZZ, via the doubling recurrences (independent of the
    derivative-recursion machinery under test).
    """
    x = Poly.x(ZZ)
    f = x**3 + a * x + b
    w = {
        0: Poly.zero(ZZ),
        1: Poly.one(ZZ),
        2: Poly.one(ZZ),
        3: 3 * x**4 + (6 * a) * x**2 + (12 * b) * x + Poly.of_ints(ZZ, [-a * a]),
        4: (
            x**6 + 5 * a * x**4 + 20 * b * x**3 - 5 * a * a * x**2 - 4 * a * b * x
            + Poly.of_ints(ZZ, [-8 * b * b - a**3])
        ).scale(2),
    }
    for n in range(5, nmax + 1):
        m = n // 2
        if n % 2 == 1:
            if m % 2 == 0:
                w[n] = (f * f).scale(16) * w[m + 2] * w[m] ** 3 - w[m - 1] * w[m + 1] ** 3
            else:
                w[n] = w[m + 2] * w[m] ** 3 - (f * f).scale(16) * w[m - 1] * w[m + 1] ** 3
        else:
            w[n] = w[m] * (w[m + 2] * w[m - 1] ** 2 - w[m - 2] * w[m + 1] ** 2)
    return w


@pytest.fixture
def prs_calls(monkeypatch):
    """The argument pairs of every subresultant PRS (``poly._prs``) run
    during the test."""
    calls = []
    prs = poly._prs
    monkeypatch.setattr(poly, "_prs", lambda A, B: calls.append((A, B)) or prs(A, B))
    return calls


@pytest.fixture
def rng():
    return random.Random(0x5EED)
