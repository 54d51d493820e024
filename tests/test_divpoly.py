from math import factorial

import pytest

from hyptorsion import divpoly
from hyptorsion.curve import integral_model, mu_nu, new_model
from hyptorsion.divpoly import (
    build_M,
    cantor_P,
    classical_sign,
    cmn,
    delta,
    delta_degree,
    delta_leading_coeff,
    gamma,
    pi_subdet,
    s_sequence,
    subdet_indices,
)
from hyptorsion.errors import UsageError
from hyptorsion.exactnum import QQ
from hyptorsion.poly import Poly, ZZ, exact_div, parse_poly
from conftest import classical_division_polys, random_integral_model


def zx(text):
    return parse_poly(ZZ, text)


class TestSSequence:
    def test_ex1_golden(self, ex1_model):
        seq = s_sequence(ex1_model, 4)
        x = Poly.x(ZZ)
        assert seq.s(3) == (x**2 * (x**5 - 1) ** 2).scale(10)
        assert seq.s(4) == (x * (x**5 - 1) * zx("x^10-27*x^5+1")).scale(-5)

    def test_ex2_golden(self, ex2_model):
        seq = s_sequence(ex2_model, 5)
        theta = zx("x^4-2*x^3+2*x^2+2*x+1") * zx("x^4+2*x^3+2*x^2-2*x+1")
        assert seq.s(4) == (theta * theta).scale(-5)
        assert seq.s(5) == (theta * zx("3*x^12+291*x^8+161*x^4-7")).scale(2)

    def test_ex5_golden(self, ex5_model):
        # the degree-36 entry carries content 7 (forced by the leading
        # coefficient law 2^5 C(7,6)/6! = 14)
        seq = s_sequence(ex5_model, 6)
        x = Poly.x(ZZ)
        assert seq.s(4) == (x**3 * zx("5*x^21+58*x^14-73*x^7+5")).scale(7)
        assert seq.s(5) == (x**2 * zx("2*x^28+324*x^21-1044*x^14+232*x^7-3")).scale(-7)
        assert seq.s(6) == (x * zx("2*x^35+1826*x^28-12030*x^21+6264*x^14-407*x^7+1")).scale(7)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_degree_and_leading_coefficient_law(self, g, rng):
        for _ in range(3):
            m = random_integral_model(g, rng)
            seq = s_sequence(m, 2 * g + 6)
            for n in range(g + 1, 2 * g + 7):
                sn = seq.s(n)
                assert sn.degree == 2 * g * n
                lc_expected = (1 << (n - 1)) * cmn(2 * g + 1, n)
                assert sn.lc * factorial(n) == lc_expected

    def test_below_range_rejected(self, ex1_model):
        seq = s_sequence(ex1_model, 4)
        with pytest.raises(UsageError):
            seq.s(2)

    def test_s_entry_identities(self, ex1_model, rng):
        seq = s_sequence(ex1_model, 8)
        F = seq.FZ
        x = Poly.x(ZZ)
        for m in (5, 6, 7):
            assert seq.s_entry(0, m) == seq.s(m)
            assert seq.s_entry(1, m) == x * seq.s(m) + F * seq.s(m - 1)
        assert seq.s_entry(2, 8) == x**2 * seq.s(8) + (x * F * seq.s(7)).scale(2) + F * F * seq.s(6)

    def test_memo_bounded(self, rng):
        before = {}
        models = [random_integral_model(2, rng) for _ in range(40)]
        for m in models:
            before[m] = s_sequence(m, 6).s(6)
            assert len(divpoly._SEQ_CACHE) <= divpoly._SEQ_CACHE_MAX
        evicted = [m for m in models if integral_model(m) not in divpoly._SEQ_CACHE]
        assert evicted
        for m in evicted:
            assert s_sequence(m, 6).s(6) == before[m]


class TestMatrix:
    def test_m5_shape_and_entries(self, ex1_model):
        M = build_M(ex1_model, 5)
        seq = s_sequence(ex1_model, 4)
        assert len(M.entries) == 1 and len(M.entries[0]) == 2
        assert M.entries[0] == (seq.s(3), seq.s(4))

    def test_m7_shape(self, ex1_model):
        M = build_M(ex1_model, 7)
        seq = s_sequence(ex1_model, 6)
        assert len(M.entries) == 2 and len(M.entries[0]) == 3
        assert M.entries[0] == (seq.s_entry(0, 4), seq.s_entry(0, 5), seq.s_entry(0, 6))
        assert M.entries[1] == (seq.s_entry(1, 4), seq.s_entry(1, 5), seq.s_entry(1, 6))

    def test_m6_ex2(self, ex2_model):
        M = build_M(ex2_model, 6)
        seq = s_sequence(ex2_model, 5)
        assert M.entries == ((seq.s(4), seq.s(5)),)

    def test_subdet_indices_colex(self):
        assert subdet_indices(2, 7) == [(4, 5), (4, 6), (5, 6)]
        assert subdet_indices(2, 5) == [(3,), (4,)]
        idx9 = subdet_indices(2, 9)
        assert idx9[0] == (5, 6, 7)  # leftmost first
        assert all(a[::-1] < b[::-1] for a, b in zip(idx9, idx9[1:]))

    def test_bad_index_rejected(self, ex1_model):
        with pytest.raises(UsageError):
            pi_subdet(ex1_model, 7, (4, 4))
        with pytest.raises(UsageError):
            pi_subdet(ex1_model, 7, (3, 5))

    def test_single_column_subdet_is_s(self, ex1_model):
        seq = s_sequence(ex1_model, 4)
        assert pi_subdet(ex1_model, 5, (3,)) == seq.s(3)
        assert pi_subdet(ex1_model, 5, (4,)) == seq.s(4)


class TestSubdeterminants:
    def test_ex4_printed_products(self, ex1_model):
        x = Poly.x(ZZ)
        F = ex1_model.F.map_to(ZZ)
        u5 = x * (x**5 - 1)
        m12 = (u5**2 * F * zx("7*x^20-1218*x^15-463*x^10-198*x^5-3")).scale(-5)
        m13 = (u5 * F * zx("14*x^30-6594*x^25+16110*x^20+2970*x^15+3285*x^10-159*x^5-1")).scale(5)
        m23 = -(F * zx("14*x^40-11172*x^35+28112*x^30-295344*x^25+1330*x^20-111384*x^15-1598*x^10-582*x^5-1"))
        assert gamma(ex1_model, 7) == m12
        assert pi_subdet(ex1_model, 7, (4, 5)) == exact_div(m12, F)
        assert pi_subdet(ex1_model, 7, (4, 6)) == exact_div(m13, F)
        assert pi_subdet(ex1_model, 7, (5, 6)) == exact_div(m23, F)

    def test_route_equivalence_random(self, rng):
        # det of the column-selected block of M equals F^(mu(mu+1)/2) times
        # the companion determinant, for every column choice with mu <= 2
        from hyptorsion.linalg import bareiss_det

        cases = [(1, 5), (1, 7), (2, 8), (2, 9), (3, 9)]
        for g, N in cases:
            m = random_integral_model(g, rng, coeff_bound=3)
            mn = mu_nu(g, N)
            assert mn.mu <= 2
            seq = s_sequence(m, N - 1)
            e = mn.mu * (mn.mu + 1) // 2
            for j in subdet_indices(g, N):
                sigma = [
                    [seq.s_entry(i, jl) for jl in j]
                    for i in range(mn.mu + 1)
                ]
                det_sigma = bareiss_det(sigma)
                assert det_sigma == seq.F_power(e) * pi_subdet(m, N, j)

    def test_degree_bounds(self, rng):
        for g, N in ((2, 9), (3, 9)):
            m = random_integral_model(g, rng, coeff_bound=3)
            mn = mu_nu(g, N)
            for j in subdet_indices(g, N):
                pi = pi_subdet(m, N, j)
                if not pi.is_zero:
                    assert pi.degree <= 2 * g * sum(j) - g * mn.mu * (mn.mu + 1)

    def test_maximal_rank(self, ex1_model, ex2_model, ex5_model, rng):
        models = [ex1_model, ex2_model, ex5_model, random_integral_model(2, rng)]
        for m in models:
            for N in range(2 * m.g + 1, 2 * m.g + 4):
                assert any(not pi_subdet(m, N, j).is_zero for j in subdet_indices(m.g, N))


class TestDelta:
    def test_ex1_values(self, ex1_model):
        d5 = delta(ex1_model, 5)
        seq = s_sequence(ex1_model, 4)
        assert d5 == seq.s(3)
        assert d5.degree == delta_degree(2, 5) == 12
        assert d5.lc == delta_leading_coeff(2, 5) == 10
        assert delta(ex1_model, 5, 2).is_zero

    def test_ex2_values(self, ex2_model):
        d6 = delta(ex2_model, 6)
        assert d6.degree == delta_degree(2, 6) == 16
        assert d6.lc == delta_leading_coeff(2, 6) == -5
        assert delta(ex2_model, 6, 5).is_zero

    def test_delta7_strips_one_F(self, ex1_model):
        F = ex1_model.F.map_to(ZZ)
        assert gamma(ex1_model, 7) == F * delta(ex1_model, 7)

    def test_integrality_guard_message(self, ex1_model):
        # the recursion state divided by 2^(n+1) n! is integral for n > g
        seq = s_sequence(ex1_model, 9)
        for n in range(3, 10):
            assert all(isinstance(c, int) for c in seq.s(n).cs)


class TestCantorSign:
    def test_sign_examples(self):
        assert classical_sign(2, 5) == -1
        # any model at N = 2g+1 has sign (-1)^(1-g)
        for g in (1, 2, 3, 4):
            assert classical_sign(g, 2 * g + 1) == (-1) ** (1 - g)

    def test_ex1_cantor_p(self, ex1_model):
        assert cantor_P(ex1_model, 5) == -delta(ex1_model, 5)

    def test_g1_matches_classical_oracle_with_sign(self):
        for a, b in ((1, 0), (0, 1), (-1, 1)):
            m = new_model(QQ, Poly.of_ints(QQ, [b, a, 0, 1]), Poly.zero(QQ))
            w = classical_division_polys(a, b, 5)
            for N in (3, 4, 5):
                assert cantor_P(m, N) == w[N], (a, b, N)

    def test_g1_delta_up_to_sign(self):
        m = new_model(QQ, Poly.of_ints(QQ, [0, 1, 0, 1]), Poly.zero(QQ))
        w = classical_division_polys(1, 0, 5)
        assert w[3] == zx("3*x^4+6*x^2-1")
        for N in (3, 4, 5):
            d = delta(m, N)
            assert d == w[N] or d == -w[N]
