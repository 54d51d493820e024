import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hyptorsion.poly as poly
from hyptorsion.errors import InexactDivisionError, TheoremViolation, UsageError
from hyptorsion.exactnum import QQ, _is_irreducible, make_extension, prime_field
from hyptorsion.linalg import bareiss_det, berkowitz_det_mod
from hyptorsion.poly import (
    Poly,
    ZZ,
    exact_div,
    gcd_primitive,
    hasse_derivative,
    parse_poly,
    poly_gcd,
    rational_roots,
    resultant,
    roots_by_degree,
    squarefree_part,
    subfield_embedding,
)


def rand_poly(dom, deg, rng, bound=9):
    if dom is ZZ or dom == QQ:
        return Poly.of_ints(dom, [rng.randint(-bound, bound) for _ in range(deg + 1)])
    return Poly(dom, [dom.element_from_index(rng.randrange(dom.order)) for _ in range(deg + 1)])


class TestArithmetic:
    def test_divmod_roundtrip(self, rng):
        for dom in (QQ, prime_field(7), make_extension(2, 3)):
            for _ in range(25):
                a = rand_poly(dom, rng.randint(0, 12), rng)
                b = rand_poly(dom, rng.randint(0, 6), rng)
                if b.is_zero:
                    continue
                q, r = divmod(a, b)
                assert q * b + r == a
                assert r.is_zero or r.degree < b.degree

    def test_karatsuba_matches_schoolbook(self, rng):
        # large balanced products cross the Karatsuba threshold
        for _ in range(5):
            a = rand_poly(ZZ, 120, rng, bound=10**6)
            b = rand_poly(ZZ, 110, rng, bound=10**6)
            slow = [0] * (a.degree + b.degree + 1)
            for i, ai in enumerate(a.cs):
                for j, bj in enumerate(b.cs):
                    slow[i + j] += ai * bj
            assert (a * b).cs == tuple(slow)

    def test_numpy_gfp_path_matches_schoolbook(self, rng):
        p = 911
        gf = prime_field(p)
        a = rand_poly(gf, 400, rng)
        b = rand_poly(gf, 350, rng)
        slow = [0] * (a.degree + b.degree + 1)
        for i, ai in enumerate(a.cs):
            for j, bj in enumerate(b.cs):
                slow[i + j] = (slow[i + j] + ai * bj) % p
        assert (a * b).cs == tuple(slow)

    def test_exact_div(self):
        x = Poly.x(ZZ)
        assert exact_div(x**2 - 1, x - 1) == x + 1
        assert exact_div(Poly.of_ints(ZZ, [1, 2, 2, 1]), Poly.of_ints(ZZ, [1, 1])) == Poly.of_ints(ZZ, [1, 1, 1])
        f = (x**2 * (x**5 - 1) ** 2).scale(10)
        assert exact_div(f, Poly.one(ZZ)) == f
        with pytest.raises(InexactDivisionError):
            exact_div(x**2 + 1, x - 1)

    def test_eval_in_extension(self):
        F4 = make_extension(2, 2)
        from hyptorsion.exactnum import FieldElement

        f = Poly.of_ints(prime_field(2), [1, 1, 1])  # x^2 + x + 1
        w = FieldElement(F4, (0, 1))
        assert not f(w)  # w is a root

    def test_text_forms(self):
        f = parse_poly(ZZ, "10*x^12 - 20*x^7 + 10*x^2")
        assert str(f) == "10*x^12 - 20*x^7 + 10*x^2"
        assert parse_poly(ZZ, f.to_csv()) == f
        assert parse_poly(QQ, "x^2 - 1/2") == Poly(QQ, [Fraction(-1, 2), Fraction(0), Fraction(1)])
        assert parse_poly(ZZ, "0,0,1") == Poly.x(ZZ) ** 2


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def long_divmod(a, b, p):
    """Reference GF(p) schoolbook division of residue lists, b[-1] != 0."""
    db = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    rem = list(a)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i] * inv % p
        q[i - db] = c
        for j, bj in enumerate(b):
            rem[i - db + j] = (rem[i - db + j] - c * bj) % p
    return _trim(q), _trim(rem[:db])


def long_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


# 134217689 < 2^27 is the one prime here whose convolutions take the int64
# path (n·(p−1)² between 2^53 and 2^62).  2^31−1 divides by the int64 long
# division loop and 4294967291 in plain Python; both multiply in plain Python.
FUZZ_PRIMES = (2, 5, 13, 65521, 134217689, 2**31 - 1, 4294967291)


def _rand_gfp(gf, deg, rnd):
    """Random residues of degree exactly deg (the zero polynomial for -1)."""
    p = gf.p
    return Poly(gf, [rnd.randrange(p) for _ in range(deg)] + [rnd.randrange(1, p)] if deg >= 0 else [])


class TestGfpFuzz:
    """GF(p) kernels against schoolbook references and sympy, degrees 0-600,
    crossing the numpy (256 coefficients), Newton-quotient, elementwise-array
    and overflow thresholds."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(p=st.sampled_from(FUZZ_PRIMES), db=st.integers(0, 600), da=st.integers(0, 600),
           exact=st.booleans(), seed=st.integers(0, 2**32))
    def test_against_reference_and_sympy(self, p, db, da, exact, seed):
        rnd = random.Random(seed)
        gf = prime_field(p)
        b = _rand_gfp(gf, db, rnd)
        if exact:
            q0 = _rand_gfp(gf, max(da - db, 0), rnd)
            r0 = _rand_gfp(gf, rnd.randint(0, db - 1), rnd) if db > 0 and rnd.random() < 0.5 else Poly.zero(gf)
            a = q0 * b + r0
            if r0.is_zero:
                assert exact_div(a, b) == q0
            else:
                with pytest.raises(InexactDivisionError):
                    exact_div(a, b)
        else:
            a = _rand_gfp(gf, da, rnd)
        q, r = divmod(a, b)
        assert [list(q.cs), list(r.cs)] == list(long_divmod(a.cs, b.cs, p))
        if exact:
            assert (q, r) == (q0, r0)
        # the reciprocal memoized on b is reused and extended here
        assert exact_div(a * b, b) == a
        assert list((a * b).cs) == long_mul(a.cs, b.cs, p)
        n = max(len(a.cs), len(b.cs))
        pad_a, pad_b = list(a.cs) + [0] * (n - len(a.cs)), list(b.cs) + [0] * (n - len(b.cs))
        assert list((a - b).cs) == _trim((x - y) % p for x, y in zip(pad_a, pad_b))
        assert list((a + b).cs) == _trim((x + y) % p for x, y in zip(pad_a, pad_b))
        assert list((-a).cs) == [-x % p for x in a.cs]
        c = rnd.randrange(p)
        assert list(a.scale(c).cs) == _trim(x * c % p for x in a.cs)

        # sympy's dense GF(p) list arithmetic (descending coefficients); its
        # Poly(..., modulus=p) front end runs the same operations about ten
        # times slower, on field-element objects
        gt = pytest.importorskip("sympy.polys.galoistools")
        K = pytest.importorskip("sympy.polys.domains").ZZ
        sa, sb = list(reversed(a.cs)), list(reversed(b.cs))
        sq, sr = gt.gf_div(sa, sb, p, K)
        assert [list(q.cs), list(r.cs)] == [sq[::-1], sr[::-1]]
        assert list((a * b).cs) == gt.gf_mul(sa, sb, p, K)[::-1]
        assert list((a - b).cs) == gt.gf_sub(sa, sb, p, K)[::-1]

    @pytest.mark.parametrize("p", [4294967291, 4294967311])
    def test_no_int64_overflow_above_2_to_31(self, p, rng):
        # (p-1)^2 >= 2^63: an int64 update qc*b would wrap
        gf = prime_field(p)
        a, b = _rand_gfp(gf, 200, rng), _rand_gfp(gf, 150, rng)
        assert exact_div(a * b, b) == a
        assert divmod(a * b + Poly.one(gf), b) == (a, Poly.one(gf))

    def test_reciprocal_memo_is_not_part_of_the_value(self, rng):
        gf = prime_field(5)
        b = _rand_gfp(gf, 300, rng)
        twin = Poly(gf, b.cs)
        for deg_q in (40, 300, 100, 600):
            a = _rand_gfp(gf, deg_q, rng)
            assert exact_div(a * twin, b) == a
            assert b == twin and hash(b) == hash(twin)


class TestHasseDerivative:
    def test_examples(self):
        xq = Poly.x(QQ)
        assert hasse_derivative(xq**5, 2) == (xq**3).scale(10)
        x2 = Poly.x(prime_field(2))
        assert hasse_derivative(x2**5, 2).is_zero  # 10 = 0 mod 2
        f = Poly.of_ints(QQ, [3, 1, 4, 1, 5])
        assert hasse_derivative(f, 0) == f

    @pytest.mark.parametrize("dom", [QQ, prime_field(2), prime_field(5)])
    def test_leibniz_rule(self, dom, rng):
        for _ in range(12):
            u = rand_poly(dom, rng.randint(0, 7), rng)
            v = rand_poly(dom, rng.randint(0, 7), rng)
            for n in range(7):
                lhs = hasse_derivative(u * v, n)
                rhs = Poly.zero(dom)
                for ell in range(n + 1):
                    rhs = rhs + hasse_derivative(u, ell) * hasse_derivative(v, n - ell)
                assert lhs == rhs

    @pytest.mark.parametrize("dom", [QQ, prime_field(3)])
    def test_composition_law(self, dom, rng):
        for _ in range(12):
            f = rand_poly(dom, rng.randint(0, 9), rng)
            for m in range(4):
                for n in range(4):
                    lhs = hasse_derivative(f, n + m).scale(dom.from_int(comb(m + n, n)))
                    rhs = hasse_derivative(hasse_derivative(f, n), m)
                    assert lhs == rhs

    def test_factorial_relation_char_zero(self, rng):
        for _ in range(8):
            f = rand_poly(QQ, rng.randint(0, 9), rng)
            for n in range(5):
                once = f
                for _ in range(n):
                    once = hasse_derivative(once, 1)
                assert once == hasse_derivative(f, n).scale(QQ.from_int(factorial(n)))

    @pytest.mark.parametrize("dom", [QQ, prime_field(5), prime_field(2)])
    def test_vanishing_order_criterion(self, dom, rng):
        # f vanishes to order >= n at lam iff the first n derivatives vanish there
        for _ in range(10):
            lam = dom.from_int(rng.randint(0, 4))
            n = rng.randint(1, 5)
            shift = Poly(dom, [dom.neg(lam), dom.one()])
            cof = rand_poly(dom, rng.randint(0, 3), rng)
            if cof.is_zero or dom.is_zero(cof(lam)):
                cof = cof + Poly.one(dom)
            if dom.is_zero(cof(lam)):
                continue
            f = shift**n * cof
            for r in range(n):
                assert dom.is_zero(hasse_derivative(f, r)(lam))
            assert not dom.is_zero(hasse_derivative(f, n)(lam))


def _zz_poly(draw, deg, bound):
    """A ZZ polynomial of degree exactly deg, leading coefficient of either sign."""
    cs = draw(st.lists(st.integers(-bound, bound), min_size=deg, max_size=deg))
    lc = draw(st.integers(1, bound)) * draw(st.sampled_from([1, -1]))
    return Poly(ZZ, cs + [lc])


@st.composite
def zz_pairs(draw):
    """(f, g) over ZZ in five shapes: a constructed common factor, random
    (mostly coprime), a constant operand, both degrees odd with deg f <
    deg g (the resultant's swap sign), and one or both operands zero.  Each
    side also gets a content of either sign."""
    shape = draw(st.sampled_from(["common", "random", "constant", "odd-swap", "zero"]))
    if shape == "odd-swap":
        df = draw(st.sampled_from([1, 3, 5]))
        dg = draw(st.sampled_from([d for d in (3, 5, 7) if d > df]))
    elif shape == "constant":
        df, dg = 0, draw(st.integers(0, 6))
        if draw(st.booleans()):
            df, dg = dg, df
    else:
        df, dg = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    common = _zz_poly(draw, draw(st.integers(1, 3)), 9) if shape == "common" else Poly.one(ZZ)
    contents = st.sampled_from([1, -1, 2, -3, 6, -12])
    f = (_zz_poly(draw, df, 40) * common).scale(draw(contents))
    g = (_zz_poly(draw, dg, 40) * common).scale(draw(contents))
    if shape == "zero":
        zero = Poly.zero(ZZ)
        return draw(st.sampled_from([(f, zero), (zero, g), (zero, zero)]))
    return f, g


@st.composite
def zz_big_pairs(draw):
    """(A·C, B·C) with coefficients of 200-900 bits and a constructed common
    factor C, so GCDHEU's evaluation point is many machine words long."""
    bound = 1 << draw(st.integers(200, 900))
    C = _zz_poly(draw, draw(st.integers(1, 3)), bound)
    A = _zz_poly(draw, draw(st.integers(0, 4)), bound)
    B = _zz_poly(draw, draw(st.integers(0, 4)), bound)
    return A * C, B * C


def _desc(f):
    return list(reversed(f.cs))


_ZZ_FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestGcd:
    def test_examples(self):
        xq = Poly.x(QQ)
        assert poly_gcd(xq**2 - 1, xq - 1) == xq - 1
        assert poly_gcd(xq * (xq**5 - 1), 4 * xq**5 + 1) == Poly.one(QQ)
        f = (xq**3 + xq).scale(Fraction(7, 3))
        assert poly_gcd(f, Poly.zero(QQ)) == f.monic()
        assert poly_gcd(Poly.zero(QQ), Poly.zero(QQ)).is_zero

    def test_zz_domain_refused(self):
        with pytest.raises(UsageError):
            poly_gcd(Poly.x(ZZ), Poly.x(ZZ))

    def test_gcd_primitive(self, rng):
        x = Poly.x(ZZ)
        assert gcd_primitive((x - 1) * (x + 2) * 6, (x - 1) * (x + 3) * 4) == (x - 1) * 2
        zero = Poly.zero(ZZ)
        assert gcd_primitive(6 * x, zero) == gcd_primitive(zero, -6 * x) == 6 * x
        assert gcd_primitive(zero, zero).is_zero
        for _ in range(15):
            c = rand_poly(ZZ, rng.randint(1, 4), rng)
            a = rand_poly(ZZ, rng.randint(0, 4), rng)
            b = rand_poly(ZZ, rng.randint(0, 4), rng)
            if c.is_zero or a.is_zero or b.is_zero:
                continue
            got = gcd_primitive(c * a, c * b)
            _, rem = divmod((c * a).map_to(QQ), got.map_to(QQ))
            assert rem.is_zero
            _, rem = divmod(got.map_to(QQ), c.primitive().map_to(QQ))
            assert rem.is_zero

    @_ZZ_FUZZ
    @given(st.one_of(zz_pairs(), zz_big_pairs()))
    def test_gcd_primitive_fuzz_against_sympy(self, fg):
        euclid = pytest.importorskip("sympy.polys.euclidtools")
        K = pytest.importorskip("sympy.polys.domains").ZZ
        f, g = fg
        got = gcd_primitive(f, g)
        assert _desc(got) == euclid.dup_gcd(_desc(f), _desc(g), K)
        assert got == gcd_primitive(g, f)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(poly, "_HEU_TRIES", 0)  # the subresultant PRS alone
            assert gcd_primitive(f, g) == got

    def test_heu_gcd_retries_after_a_rejected_point(self, monkeypatch, prs_calls):
        # the first point is 2·5 + 29 = 39 and A(39) = B(39), so the first
        # candidate is A itself, which does not divide B; gcd(A, B) = 1
        x = Poly.x(ZZ)
        A, B = x**2 + 5, x**2 + x - 34
        rejected = []
        divmod_zz = poly._divmod_zz

        def counting(a, b):
            q, r = divmod_zz(a, b)
            if not r.is_zero:
                rejected.append(b)
            return q, r

        monkeypatch.setattr(poly, "_divmod_zz", counting)
        assert gcd_primitive(A, B) == Poly.one(ZZ)
        assert rejected == [A] and prs_calls == []


class TestSquarefree:
    def test_examples(self):
        xq = Poly.x(QQ)
        assert squarefree_part((xq**2) * (xq**5 - 1) ** 2) == (xq * (xq**5 - 1)).monic()
        x2 = Poly.x(prime_field(2))
        assert squarefree_part(x2**16 + x2) == x2**16 + x2
        assert squarefree_part(Poly.of_ints(prime_field(2), [1, 2, 0, 0, 1])) == x2 + 1

    @pytest.mark.parametrize("q", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (5, 2), (2, 3)])
    def test_properties_over_small_fields(self, q, rng):
        spec = make_extension(*q)
        for _ in range(12):
            f = rand_poly(spec, rng.randint(1, 6), rng)
            if f.is_zero:
                continue
            sf = squarefree_part(f)
            _, rem = divmod(f, sf)
            assert rem.is_zero, "squarefree part divides"
            assert squarefree_part(sf) == sf, "idempotent"
            roots_f = [v for v in spec.elements() if spec.is_zero(f(v))]
            roots_sf = [v for v in spec.elements() if spec.is_zero(sf(v))]
            assert roots_f == roots_sf


class TestResultant:
    def test_examples(self):
        x = Poly.x(ZZ)
        assert resultant(x**2 - 1, x - 2) == 3
        assert resultant(x - 1, x - 3) == 2
        assert resultant(x**2 + 1, x**2 + x + 1) == 1  # Sylvester 4x4 determinant

    def _sylvester_oracle(self, f, g):
        """Reference value via the Sylvester matrix of (g, f) over ZZ."""
        n, m = f.degree, g.degree
        size = n + m
        rows = []
        gc = list(reversed(g.cs))
        fc = list(reversed(f.cs))
        for i in range(n):
            rows.append([Poly.of_ints(ZZ, [c]) for c in ([0] * i + gc + [0] * (size - m - 1 - i))])
        for i in range(m):
            rows.append([Poly.of_ints(ZZ, [c]) for c in ([0] * i + fc + [0] * (size - n - 1 - i))])
        det = bareiss_det(rows)
        return det.coeff(0)

    def test_matches_sylvester_oracle(self, rng):
        for _ in range(25):
            f = rand_poly(ZZ, rng.randint(1, 5), rng)
            g = rand_poly(ZZ, rng.randint(1, 5), rng)
            if f.is_zero or g.is_zero or f.cs[-1] == 0 or g.cs[-1] == 0:
                continue
            assert resultant(f, g) == self._sylvester_oracle(f, g)

    @_ZZ_FUZZ
    @given(st.one_of(zz_pairs(), zz_big_pairs()))
    def test_fuzz_against_sympy_and_sylvester(self, fg):
        euclid = pytest.importorskip("sympy.polys.euclidtools")
        K = pytest.importorskip("sympy.polys.domains").ZZ
        f, g = fg
        if f.is_zero or g.is_zero:
            with pytest.raises(UsageError):
                resultant(f, g)
            return
        r = resultant(f, g)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(poly, "_HEU_TRIES", 0)  # the subresultant PRS alone
            assert resultant(f, g) == r
        # resultant(f, g) is the textbook Res(g, f) = (-1)^(mn) Res(f, g).
        # sympy 1.14's dup_resultant(a, b) drops that sign when deg a < deg b
        # and both are odd, so it is called with the larger degree first.
        a, b = (g, f) if g.degree >= f.degree else (f, g)
        sign = 1 if a is g else (-1) ** (f.degree * g.degree)
        assert r == sign * euclid.dup_resultant(_desc(a), _desc(b), K)
        if f.degree + g.degree > 0:
            assert r == self._sylvester_oracle(f, g)
        assert resultant(g, f) == (-1) ** (f.degree * g.degree) * r
        assert (r == 0) == (gcd_primitive(f, g).degree > 0)

    def test_rational_and_finite_agree_with_integer(self, rng):
        for _ in range(20):
            f = rand_poly(ZZ, rng.randint(1, 5), rng)
            g = rand_poly(ZZ, rng.randint(1, 5), rng)
            if f.is_zero or g.is_zero:
                continue
            rz = resultant(f, g)
            assert resultant(f.map_to(QQ), g.map_to(QQ)) == rz
            gf = prime_field(13)
            fp, gp = f.map_to(gf), g.map_to(gf)
            if not fp.is_zero and not gp.is_zero and fp.degree == f.degree and gp.degree == g.degree:
                assert resultant(fp, gp) == rz % 13

    def test_zero_iff_common_factor(self, rng):
        gf = prime_field(5)
        for _ in range(40):
            f = rand_poly(gf, rng.randint(1, 5), rng)
            g = rand_poly(gf, rng.randint(1, 5), rng)
            if f.is_zero or g.is_zero:
                continue
            r = resultant(f, g)
            has_common = poly_gcd(f, g).degree > 0
            assert gf.is_zero(r) == has_common


class TestRoots:
    def test_split_field_example_f2(self):
        F2 = prime_field(2)
        f = Poly.of_ints(F2, [0, 1]) + Poly.of_ints(F2, [0] * 16 + [1])  # x^16 - x
        rd = roots_by_degree(f, 4)
        assert {d: len(v) for d, v in rd.items()} == {1: 2, 2: 2, 4: 12}
        # Moebius/necklace counts of monic irreducibles over F_2: 2,1,0(deg 3 absent here),3
        for d, roots in rd.items():
            spec = roots[0].spec
            assert spec == make_extension(2, d)
            for r in roots:
                assert not f(r)

    def test_fifth_roots_of_unity_mod_3(self):
        F3 = prime_field(3)
        x3 = Poly.x(F3)
        rd = roots_by_degree(x3 * (x3**5 - 1), 4)
        assert {d: len(v) for d, v in rd.items()} == {1: 2, 4: 4}

    def test_sqrt_of_minus_one_mod_5(self):
        rd = roots_by_degree(Poly.of_ints(prime_field(5), [1, 0, 1]), 1)
        assert [e.value for e in rd[1]] == [2, 3]

    def test_root_count_bound_and_evaluation(self, rng):
        for spec in (prime_field(5), make_extension(2, 2)):
            for _ in range(10):
                f = rand_poly(spec, rng.randint(1, 7), rng)
                if f.is_zero or f.degree < 1:
                    continue
                rd = roots_by_degree(f, 3)
                total = sum(len(v) for v in rd.values())
                assert total <= f.degree
                for d, roots in rd.items():
                    big = make_extension(spec.p, d * spec.k)
                    emb = subfield_embedding(spec, big)
                    fbig = Poly(big, [emb(c) for c in f.cs])
                    for r in roots:
                        assert not fbig(r)

    def test_embedding_is_homomorphism(self, rng):
        src = make_extension(2, 2)
        dst = make_extension(2, 4)
        emb = subfield_embedding(src, dst)
        for _ in range(20):
            a = src.element_from_index(rng.randrange(4))
            b = src.element_from_index(rng.randrange(4))
            assert emb(src.mul(a, b)) == dst.mul(emb(a), emb(b))
            assert emb(src.add(a, b)) == dst.add(emb(a), emb(b))

    def test_rational_roots(self):
        x = Poly.x(ZZ)
        roots, complete = rational_roots(x**6 - x)
        assert complete and roots == [0, 1]
        roots, complete = rational_roots((2 * x - 1) * (x + 3))
        assert complete and roots == [-3, Fraction(1, 2)]


def split_roots_reference(f):
    """The full Cantor-Zassenhaus split: every root of a squarefree f that
    splits over its field, one recursion per factor found.  The reference
    for the orbit route of ``poly._split_roots``."""
    spec = f.dom
    f = f.monic()
    if f.degree <= 0:
        return []
    if f.degree == 1:
        return [spec.neg(f.cs[0])]
    q = spec.order
    xpoly = Poly.x(spec)
    if spec.char != 2:
        for idx in poly._candidate_order(spec):
            c = spec.element_from_index(idx)
            h = poly._powmod(xpoly + Poly.const(spec, c), (q - 1) // 2, f) - Poly.one(spec)
            g = poly_gcd(f, h)
            if 0 < g.degree < f.degree:
                return split_roots_reference(g) + split_roots_reference(exact_div(f, g))
    else:
        kbits = q.bit_length() - 1
        for idx in poly._candidate_order(spec):
            if idx == 0:
                continue
            c = spec.element_from_index(idx)
            t = (xpoly.scale(c)) % f
            acc = t
            for _ in range(kbits - 1):
                t = (t * t) % f
                acc = (acc + t) % f
            g = poly_gcd(f, acc)
            if 0 < g.degree < f.degree:
                return split_roots_reference(g) + split_roots_reference(exact_div(f, g))
    raise AssertionError("splitting candidates exhausted on a split polynomial")


def _irreducible_product(p, degrees, rng):
    """A product of distinct random monic irreducibles over GF(p), one of
    each given degree for which 60 draws find a new one."""
    gf = prime_field(p)
    seen, f = set(), Poly.one(gf)
    for e in degrees:
        for _ in range(60):
            m = tuple(rng.randrange(p) for _ in range(e)) + (1,)
            if m not in seen and (e == 1 or _is_irreducible(list(m), p)):
                seen.add(m)
                f = f * Poly.of_ints(gf, list(m))
                break
    return f


def _reference_embedding_root(src, dst):
    roots = split_roots_reference(Poly.of_ints(dst, list(src.modulus)))
    return min(roots, key=dst.element_index)


class TestSplitByOrbit:
    @pytest.mark.parametrize("p, ds", [(2, (2, 3, 4, 6)), (3, (2, 3, 4)), (5, (2, 3)), (13, (2, 3))])
    def test_products_of_irreducibles_match_full_split(self, p, ds, rng):
        for d in ds:
            big = make_extension(p, d)
            divisors = [e for e in range(1, d + 1) if d % e == 0]
            for _ in range(5):
                degrees = [rng.choice(divisors) for _ in range(rng.randint(1, 5))]
                f = _irreducible_product(p, degrees, rng)
                img = f.map_to(big)
                got = poly._split_roots(img, p)
                assert len(got) == len(set(got)) == f.degree
                key = big.element_index
                assert sorted(got, key=key) == sorted(split_roots_reference(img), key=key)

    @pytest.mark.parametrize("p, k", [(3, 2), (2, 2), (7, 1)])
    def test_roots_by_degree_matches_full_split(self, p, k, rng, monkeypatch):
        spec = make_extension(p, k) if k > 1 else prime_field(p)
        polys = [rand_poly(spec, rng.randint(2, 9), rng) for _ in range(6)]
        polys = [f for f in polys if f.degree > 0]
        got = [roots_by_degree(f, f.degree) for f in polys]
        monkeypatch.setattr(poly, "_split_roots", lambda f, q: split_roots_reference(f))
        subfield_embedding.cache_clear()
        try:
            assert got == [roots_by_degree(f, f.degree) for f in polys]
        finally:
            subfield_embedding.cache_clear()

    def test_embeddings_up_to_4096_match_full_split(self):
        pairs = [(p, k, K) for p in (2, 3, 5, 7, 11, 13) for K in range(2, 13) if p**K <= 4096
                 for k in range(2, K) if K % k == 0]
        assert len(pairs) == 17
        for p, k, K in pairs + [(911, 5, 10)]:
            src, dst = make_extension(p, k), make_extension(p, K)
            gen = (0, 1) + (0,) * (k - 2)
            assert subfield_embedding(src, dst)(gen) == _reference_embedding_root(src, dst), (p, k, K)

    def test_wrong_frobenius_exponent_raises(self):
        # x -> x^3 does not fix the coefficients of (x - a)(x - b) over GF(9)
        # when b != a^3, so the conjugate of the first root found is no root
        gf9 = make_extension(3, 2)
        a, b = gf9.element_from_index(3), gf9.element_from_index(4)
        assert gf9.pow(a, 3) != b and gf9.pow(b, 3) != a
        f = Poly(gf9, [gf9.neg(a), gf9.one()]) * Poly(gf9, [gf9.neg(b), gf9.one()])
        assert sorted(poly._split_roots(f, 9)) == sorted([a, b])
        with pytest.raises(TheoremViolation):
            poly._split_roots(f, 3)


class TestDeterminants:
    def test_bareiss_vs_cofactor(self, rng):
        for dom in (ZZ, prime_field(7)):
            for n in (1, 2, 3, 4):
                for _ in range(6):
                    m = [[rand_poly(dom, rng.randint(0, 2), rng, bound=4) for _ in range(n)] for _ in range(n)]
                    det = bareiss_det(m)
                    assert det == self._cofactor(m, dom)

    def _cofactor(self, m, dom):
        n = len(m)
        if n == 1:
            return m[0][0]
        acc = Poly.zero(dom)
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            term = m[0][j] * self._cofactor(minor, dom)
            acc = acc + term if j % 2 == 0 else acc - term
        return acc

    def test_berkowitz_mod_matches_bareiss(self, rng):
        gf = prime_field(5)
        for n in (2, 3, 4):
            for _ in range(8):
                m = [[rand_poly(gf, rng.randint(0, 3), rng) for _ in range(n)] for _ in range(n)]
                h = rand_poly(gf, rng.randint(1, 3), rng)
                if h.degree < 1:
                    continue
                h = h.monic()
                assert berkowitz_det_mod(m, h) == bareiss_det(m) % h
        # degree-100 entries: Bareiss divides degree-400 and -600 numerators,
        # past the numpy and Newton thresholds; an h of degree above the
        # determinant's makes Berkowitz mod h an independent full determinant
        for p in (5, 65521):
            gf = prime_field(p)
            m = [[_rand_gfp(gf, 100, rng) for _ in range(4)] for _ in range(4)]
            h = _rand_gfp(gf, 401, rng).monic()
            det = bareiss_det(m)
            assert det.degree > 300
            assert berkowitz_det_mod(m, h) == det

    def test_bareiss_zero_pivot_row_swap(self):
        x = Poly.x(ZZ)
        z = Poly.zero(ZZ)
        m = [[z, x], [x, z]]
        assert bareiss_det(m) not in (None,) and bareiss_det(m) == -(x * x)
        m3 = [[z, z, Poly.one(ZZ)], [z, x, z], [x, z, z]]
        assert bareiss_det(m3) == -(x * x)
