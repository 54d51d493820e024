from dataclasses import replace

import pytest

import hyptorsion.jacobian as jacobian
from hyptorsion.curve import integral_model, reduce_mod_p
from hyptorsion.errors import TheoremViolation, UsageError
from hyptorsion.exactnum import QQ, FieldElement, make_extension, prime_field, solve_quadratic
from hyptorsion.jacobian import (
    MumfordDivisor,
    add,
    context_over,
    embed_point,
    has_exact_order,
    identity,
    neg,
    scalar_mul,
    verify_utilde,
)
from hyptorsion.poly import Poly, poly_gcd, roots_by_degree, subfield_embedding
from hyptorsion.torsion import utilde
from conftest import random_prime_field_model


def random_divisor(ctx, rng, tries=60):
    """A reduced divisor built by summing random embedded points."""
    spec = ctx.field
    acc = identity(ctx)
    added = 0
    for _ in range(tries):
        x0 = FieldElement(spec, spec.element_from_index(rng.randrange(spec.order)))
        ys = solve_quadratic(FieldElement(spec, spec.one()), ctx.Q(x0), -ctx.P(x0))
        if not ys:
            continue
        acc = add(acc, embed_point(ctx, x0, ys[rng.randrange(len(ys))]))
        added += 1
        if added >= 2:
            break
    return acc


class TestEmbed:
    def test_examples(self, ex1_model, ex5_model):
        ctx = context_over(ex1_model)
        D = embed_point(ctx, FieldElement(QQ, 0), FieldElement(QQ, 0))
        assert D.u == Poly.of_ints(QQ, [0, 1]) and D.v.is_zero
        ctx7 = context_over(ex5_model)
        D7 = embed_point(ctx7, FieldElement(QQ, 0), FieldElement(QQ, -1))
        assert D7.v == Poly.of_ints(QQ, [-1])

    def test_off_curve_rejected(self, ex1_model):
        ctx = context_over(ex1_model)
        with pytest.raises(UsageError):
            embed_point(ctx, FieldElement(QQ, 1), FieldElement(QQ, 1))

    def test_invalid_pair_rejected(self, ex1_model):
        ctx = context_over(ex1_model)
        with pytest.raises(UsageError):
            MumfordDivisor(ctx, Poly.of_ints(QQ, [5, 1]), Poly.of_ints(QQ, [1]))


class TestGroupLaws:
    @pytest.mark.parametrize("p,g", [(3, 2), (5, 2), (7, 2), (11, 3), (13, 2)])
    def test_laws_random(self, p, g, rng):
        mp = random_prime_field_model(p, g, rng)
        ctx = context_over(mp)
        zero = identity(ctx)
        divisors = [random_divisor(ctx, rng) for _ in range(6)]
        for D in divisors:
            assert add(D, zero) == D
            assert add(D, neg(D)).is_identity
            for E in divisors:
                assert add(D, E) == add(E, D)
        for _ in range(12):
            a, b, c = (divisors[rng.randrange(len(divisors))] for _ in range(3))
            assert add(add(a, b), c) == add(a, add(b, c))

    @pytest.mark.parametrize("p,g", [(5, 2), (7, 3)])
    def test_outputs_reduced(self, p, g, rng):
        mp = random_prime_field_model(p, g, rng)
        ctx = context_over(mp)
        for _ in range(10):
            D = add(random_divisor(ctx, rng), random_divisor(ctx, rng))
            assert D.u.degree <= g
            assert D.v.is_zero or D.v.degree < D.u.degree
            assert ((D.v * D.v + ctx.Q * D.v - ctx.P) % D.u).is_zero
            assert D.u.lc == ctx.field.one()

    @pytest.mark.parametrize("p", [3, 7, 11])
    def test_scalar_additivity(self, p, rng):
        mp = random_prime_field_model(p, 2, rng)
        ctx = context_over(mp)
        D = random_divisor(ctx, rng)
        for m in range(0, 5):
            for n in range(0, 5):
                assert scalar_mul(D, m + n) == add(scalar_mul(D, m), scalar_mul(D, n))

    def test_scalar_mul_by_power_of_two_adds_m_plus_one_times(self, rng, monkeypatch):
        ctx = context_over(random_prime_field_model(11, 2, rng))
        D = random_divisor(ctx, rng)
        calls = []
        monkeypatch.setattr(jacobian, "add", lambda A, B: calls.append(1) or add(A, B))
        doubled = D
        for m in range(8):
            calls.clear()
            assert scalar_mul(D, 2**m) == doubled
            assert len(calls) == m + 1  # m doublings and one add to the identity
            doubled = add(doubled, doubled)

    def test_five_torsion_point_ex1(self, ex1_model):
        ctx = context_over(ex1_model)
        D = embed_point(ctx, FieldElement(QQ, 0), FieldElement(QQ, 0))
        assert scalar_mul(D, 5).is_identity
        assert not scalar_mul(D, 2).is_identity
        assert has_exact_order(D, 5)
        assert not has_exact_order(D, 10)


class TestVerify:
    def test_ex1_char0(self, ex1_model):
        rep = verify_utilde(ex1_model, 5, 0)
        certified = {c.x0 for c in rep.certificates if c.certified}
        assert "0" in certified
        assert rep.locus_degree == 6
        assert rep.uncertified_roots == 4  # the non-rational fifth roots of unity

    def test_ex1_char2_all_roots(self, ex1_model):
        rep = verify_utilde(ex1_model, 5, 2)
        assert rep.locus_degree == 16
        assert len(rep.certificates) == 16
        assert all(c.order_divides_N and not c.in_two_torsion for c in rep.certificates)
        degrees = sorted(set(c.x0_field_degree for c in rep.certificates))
        assert degrees == [1, 2, 4]

    def test_ex5_various_characteristics(self, ex5_model):
        for char in (0, 5, 11):
            rep = verify_utilde(ex5_model, 7, char)
            assert rep.locus_degree == 1
            assert all(c.order_divides_N for c in rep.certificates)

    @pytest.mark.parametrize("curve, N, p", [("ex1", 5, 2), ("ex1", 5, 3), ("ex2", 6, 5), ("ex5", 13, 3)])
    def test_point_lift_matches_solve_then_extend(self, request, curve, N, p):
        # the one root-finder call picks the same y, and the same embedding
        # of x0, as solving over x0's field and then over its quadratic extension
        model = reduce_mod_p(request.getfixturevalue(f"{curve}_model"), p)
        locus = utilde(model, N, p).utilde
        checked = 0
        for roots in roots_by_degree(locus, locus.degree).values():
            for x0 in roots:
                spec = x0.spec
                ctx, x0e, y0 = jacobian._point_and_context(model, spec, x0)
                base = context_over(model, spec)
                ys = solve_quadratic(FieldElement(spec, spec.one()), base.Q(x0), -base.P(x0))
                checked += 1
                if ys:
                    assert (ctx.field, x0e, y0) == (spec, x0, ys[0])
                    continue
                big = make_extension(p, 2 * spec.k)
                assert ctx.field == big
                ref = context_over(model, big)
                xb = FieldElement(big, subfield_embedding(spec, big)(x0.value))
                assert (x0e, y0) == (xb, solve_quadratic(FieldElement(big, big.one()), ref.Q(xb), -ref.P(xb))[0])
        assert checked == locus.degree > 0

    def test_x051_32_torsion(self, x051_model):
        ctx = context_over(x051_model)
        y0 = FieldElement(QQ, 8489664)
        assert (y0 * y0).value == x051_model.P(FieldElement(QQ, 0)).value
        D = embed_point(ctx, FieldElement(QQ, 0), y0)
        assert scalar_mul(D, 32).is_identity
        assert not scalar_mul(D, 16).is_identity
        assert has_exact_order(D, 32)


def verify_utilde_per_root(model, N, p):
    """The per-root route over GF(p): every root of the locus is lifted and
    certified on its own.  The reference for verify_utilde's orbit route."""
    model = integral_model(model)
    locus = utilde(model, N, p)
    reduced = reduce_mod_p(model, p)
    certs = []
    if locus.utilde.degree > 0:
        for d, roots in sorted(roots_by_degree(locus.utilde, locus.degree).items()):
            for x0 in roots:
                ctx, x0e, y0 = jacobian._point_and_context(reduced, x0.spec, x0)
                certs.append(jacobian._certify(ctx, x0e, y0, N, d))
    return jacobian.VerifyReport(N, p, locus.degree, tuple(certs), 0)


# the 10 loci of the certify-jacobian benchmark, then 7 more
DIFFERENTIAL_CASES = [
    ("ex1", 15, 2), ("ex1", 7, 911), ("ex1", 5, 2), ("ex1", 20, 11), ("ex5", 7, 13),
    ("ex5", 11, 2), ("ex5", 14, 3), ("ex5", 12, 13), ("ex2", 6, 3), ("ex2", 12, 3),
    ("ex5", 13, 3), ("ex2", 6, 5), ("ex1", 5, 7), ("ex5", 21, 13), ("ex1", 17, 2),
    ("ex5", 14, 13), ("ex1", 20, 2),
]


class TestOrbitCertification:
    @pytest.mark.parametrize("curve, N, p", DIFFERENTIAL_CASES)
    def test_matches_per_root_route(self, request, curve, N, p):
        model = request.getfixturevalue(f"{curve}_model")
        assert repr(verify_utilde(model, N, p)) == repr(verify_utilde_per_root(model, N, p))

    def test_one_certificate_per_orbit(self, ex1_model, monkeypatch):
        # the 5 roots of x^5 + 478 over GF(911) form one orbit in GF(911^5)
        calls = []
        monkeypatch.setattr(jacobian, "scalar_mul", lambda D, n: calls.append(n) or scalar_mul(D, n))
        rep = verify_utilde(ex1_model, 7, 911)
        assert [c.x0_field_degree for c in rep.certificates] == [5] * 5
        assert sorted(calls) == [2, 7]

    def test_false_locus_still_raises(self, ex5_model, monkeypatch):
        # true locus times x^2 - 2, irreducible over GF(13): its two roots are
        # one orbit, not 7-torsion, and certified at one root only
        import hyptorsion.torsion as torsion

        quad = Poly.of_ints(prime_field(13), [-2, 0, 1])
        assert roots_by_degree(quad, 1) == {}
        loc = torsion.utilde(ex5_model, 7, 13)
        assert poly_gcd(loc.utilde, quad).degree == 0
        fake = replace(loc, utilde=loc.utilde * quad)
        monkeypatch.setattr(torsion, "utilde", lambda model, N, char=None: fake)
        with pytest.raises(TheoremViolation, match="failed Jacobian certification"):
            verify_utilde(ex5_model, 7, 13)

    def test_wrong_conjugate_y_is_off_curve(self, ex1_model):
        model = reduce_mod_p(ex1_model, 911)
        (x0, *_) = roots_by_degree(utilde(model, 7, 911).utilde, 5)[5]
        ctx, xe, ye = jacobian._point_and_context(model, x0.spec, x0)
        big = ctx.field
        x1 = FieldElement(big, big.pow(xe.value, 911))
        y1 = FieldElement(big, big.pow(ye.value, 911))
        lifts = (y1, -ctx.Q(x1) - y1)  # the two roots of the quadratic for y at x1
        for y in lifts:
            embed_point(ctx, x1, y)
        wrong = [y for y in (y1 + 1, -y1, y1 * x1, x1) if y not in lifts]
        assert len(wrong) >= 3
        for y in wrong:
            with pytest.raises(UsageError, match="not on the curve"):
                embed_point(ctx, x1, y)
