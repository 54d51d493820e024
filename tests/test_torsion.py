from fractions import Fraction

import pytest

import hyptorsion.torsion as torsion
from hyptorsion.curve import reduce_mod_p
from hyptorsion.divpoly import delta, pi_subdet, subdet_indices
from hyptorsion.errors import UsageError
from hyptorsion.exactnum import QQ, FieldElement, make_extension, prime_field
from hyptorsion.jacobian import context_over, embed_point, scalar_mul
from hyptorsion.exactnum import solve_quadratic
from hyptorsion.search import reduction_scan
from hyptorsion.poly import Poly, ZZ, poly_gcd, roots_by_degree
from hyptorsion.torsion import (
    bounds,
    count_tilde,
    divisibility_check,
    epsilon,
    normalize_locus,
    rank_at,
    subdet_count_bound,
    utilde,
)
from conftest import random_integral_model, random_prime_field_model


class TestUtilde:
    def test_ex1_char0(self, ex1_model):
        xq = Poly.x(QQ)
        loc = utilde(ex1_model, 5, 0)
        assert loc.utilde == xq * (xq**5 - 1)
        assert not loc.all_subdets_zero_before
        assert count_tilde(ex1_model, 5, 0) == 12

    def test_ex1_char2(self, ex1_model):
        loc = utilde(ex1_model, 5, 2)
        x2 = Poly.x(prime_field(2))
        assert loc.utilde == x2**16 + x2
        assert loc.all_subdets_zero_before  # the leftmost subdeterminant vanished
        assert count_tilde(ex1_model, 5, 2) == 32

    def test_ex2(self, ex2_model):
        theta = (
            Poly.of_ints(ZZ, [1, 2, 2, -2, 1]) * Poly.of_ints(ZZ, [1, -2, 2, 2, 1])
        ).map_to(QQ)
        assert utilde(ex2_model, 6, 0).utilde == theta
        assert count_tilde(ex2_model, 6, 0) == 16
        loc5 = utilde(ex2_model, 6, 5)
        assert loc5.degree == 20 and count_tilde(ex2_model, 6, 5) == 40

    @pytest.mark.parametrize("p", [4294967291, 4294967311])
    def test_ex5_level16_past_int64_squares(self, ex5_model, p):
        # (p-1)^2 >= 2^63, so an int64 update q_i * b would wrap; it once
        # turned this exact division into a false falsification
        loc = utilde(ex5_model, 16, p)
        assert loc.utilde == Poly.one(prime_field(p))

    @pytest.mark.parametrize(
        "curve, N, p, degree, candidates",
        [("ex5", 14, 3, 8, [8, 22]), ("ex5", 12, 13, 42, [42]), ("ex1", 20, 11, 6, [6])],
    )
    def test_nonlinear_shortcut_matches_full_fold(self, request, monkeypatch, curve, N, p, degree, candidates):
        # the running gcd stabilizes on candidates h of degree > 1, which the
        # mod-h shortcut checks by Berkowitz inside GF(p)[x]/(h); on
        # (ex5, 14, 3) a degree-22 candidate fails first
        model = request.getfixturevalue(f"{curve}_model")
        calls = []
        original = torsion.berkowitz_det_mod

        def counted(rows, h):
            calls.append(h.degree)
            return original(rows, h)

        monkeypatch.setattr(torsion, "berkowitz_det_mod", counted)
        loc = utilde(model, N, p)
        full = None
        for j in subdet_indices(model.g, N):
            pi = pi_subdet(model, N, j, p)
            if not pi.is_zero:
                full = pi.monic() if full is None else poly_gcd(full, pi.monic())
        assert loc.utilde == normalize_locus(full, model.F.map_to(prime_field(p)))
        assert loc.degree == degree
        assert sorted(set(calls)) == candidates
        assert len(loc.subdets_used) < len(subdet_indices(model.g, N))

    def test_each_subdet_folded_once(self, ex5_model, monkeypatch):
        # a failed shortcut folds its offending index early; the loop then
        # reuses that fold instead of running Bareiss on it again
        calls = []
        original = torsion.pi_subdet
        monkeypatch.setattr(torsion, "pi_subdet", lambda m, N, j, char: calls.append(j) or original(m, N, j, char))
        loc = utilde(ex5_model, 14, 3)
        assert len(calls) == len(set(calls)) == 6
        assert loc.subdets_used == tuple(calls) and loc.degree == 8

    def test_x051_level12_char0_without_prs(self, x051_model, prs_calls):
        # one gcd of degrees 126 and 132 with ~900-bit coefficients, certified 1 by GCDHEU
        assert utilde(x051_model, 12, 0).utilde == Poly.one(QQ)
        assert prs_calls == []

    @pytest.mark.slow
    def test_x051_level20_char0_agrees_with_witness_scan(self, x051_model):
        assert utilde(x051_model, 20, 0).utilde == Poly.one(QQ)
        (v,) = reduction_scan(x051_model, [20], [5, 7, 11, 13, 19, 23], compute_char0_followup=False)
        assert v.verdict == "EMPTY"

    def test_small_levels_guard(self, ex1_model, ex5_model):
        for m, Ns in ((ex1_model, (3, 4)), (ex5_model, (3, 4, 5, 6))):
            for N in Ns:
                loc = utilde(m, N, 0)
                assert loc.utilde == Poly.one(QQ)
                assert "empty" in loc.note

    def test_rejects_tiny_N_and_bad_reduction(self, ex1_model):
        with pytest.raises(UsageError):
            utilde(ex1_model, 2, 0)
        with pytest.raises(UsageError):
            utilde(ex1_model, 7, 5)  # singular at 5

    def test_invariants_random(self, rng):
        for _ in range(4):
            m = random_integral_model(2, rng, coeff_bound=3)
            for N, char in ((5, 0), (6, 0), (7, 0), (6, 7)):
                if char and reduce_mod_p(m, char) is None:
                    continue
                loc = utilde(m, N, char)
                u = loc.utilde
                dom = u.dom
                F = m.F.map_to(dom if char == 0 else prime_field(char))
                assert poly_gcd(u, F).degree == 0, "coprime to F"
                from hyptorsion.poly import squarefree_part

                if u.degree > 0:
                    assert squarefree_part(u) == u, "squarefree"

    def test_power_divides_delta(self, ex1_model, ex2_model, rng):
        # locus^g divides the leftmost stripped subdeterminant when nonzero
        cases = [(ex1_model, 5, 0), (ex1_model, 7, 0), (ex2_model, 6, 0)]
        for _ in range(2):
            cases.append((random_integral_model(2, rng, coeff_bound=3), 6, 0))
        for m, N, char in cases:
            d = delta(m, N, char)
            if d.is_zero:
                continue
            u = utilde(m, N, char).utilde
            q = d.map_to(QQ)
            for _ in range(m.g):
                q, r = divmod(q, u)
                assert r.is_zero

    def test_count_bounds(self, ex1_model, ex2_model, rng):
        models = [
            (ex1_model, 5, 0),
            (ex1_model, 5, 2),
            (ex2_model, 6, 0),
            (ex2_model, 6, 5),
            (random_integral_model(2, rng, coeff_bound=3), 7, 0),
        ]
        for m, N, char in models:
            cnt = count_tilde(m, N, char)
            rep = bounds(m.g, N)
            assert cnt <= rep.worst_bound
            d = delta(m, N, char)
            if not d.is_zero:
                assert cnt <= 2 * d.degree // m.g
            assert cnt <= subdet_count_bound(m, N, char)

    def test_small_level_guard_empirical(self, rng):
        # brute force: no points of order 3 or 4 on a genus-2 curve over small fields
        p = 7
        mp = random_prime_field_model(p, 2, rng)
        spec2 = make_extension(p, 2)
        ctx2 = context_over(mp, spec2)
        spec4 = make_extension(p, 4)
        ctx4 = context_over(mp, spec4)
        from hyptorsion.poly import subfield_embedding

        emb = subfield_embedding(spec2, spec4)
        for idx in range(spec2.order):
            x0 = FieldElement(spec2, spec2.element_from_index(idx))
            ys = solve_quadratic(FieldElement(spec2, spec2.one()), ctx2.Q(x0), -ctx2.P(x0))
            if ys:
                ctx, xx, y0 = ctx2, x0, ys[0]
            else:
                xx = FieldElement(spec4, emb(x0.value))
                ys = solve_quadratic(FieldElement(spec4, spec4.one()), ctx4.Q(xx), -ctx4.P(xx))
                ctx, y0 = ctx4, ys[0]
            D = embed_point(ctx, xx, y0)
            for N in (3, 4):
                assert not (scalar_mul(D, N).is_identity and not scalar_mul(D, 2).is_identity)


class TestBounds:
    def test_examples(self):
        b5 = bounds(2, 5)
        assert b5.delta_bound == 12 and b5.worst_bound == 32  # 8g^2
        b6 = bounds(2, 6)
        assert b6.delta_bound == 16 and b6.worst_bound == 40  # 8g^2 + 4g
        assert bounds(2, 5).epsilon_table == (2, 1, 2)

    def test_epsilon_tables(self):
        assert tuple(epsilon(r, 1) for r in range(1)) == (1,)
        assert tuple(epsilon(r, 3) for r in range(5)) == (3, 2, 4, 2, 3)
        assert tuple(epsilon(r, 4) for r in range(7)) == (4, 3, 6, 4, 6, 3, 4)

    def test_epsilon_symmetry(self):
        for g in range(1, 7):
            for r in range(0, 2 * g - 1):
                assert epsilon(2 * g - 2 - r, g) == epsilon(r, g)
                assert epsilon(r, g) >= g - 1

    def test_general_bound_branches(self):
        assert bounds(2, 5).general_bound == 32 and bounds(2, 5).general_bound_branch == "separable"
        rep = bounds(2, 5, inseparable_p=2)  # N-1 = 4 = 2^2
        assert rep.general_bound == 72 and "inseparable" in rep.general_bound_branch
        assert bounds(2, 3, inseparable_p=2).general_bound == 50  # 25g
        assert bounds(2, 6, inseparable_p=2).general_bound == 50  # N-1=5 not a 2-power

    def test_worst_bound_attained(self, ex1_model, ex2_model):
        # the two extreme examples meet the worst-case bounds exactly
        assert count_tilde(ex1_model, 5, 2) == bounds(2, 5).worst_bound
        assert count_tilde(ex2_model, 6, 5) == bounds(2, 6).worst_bound


class TestDivisibility:
    def test_ex1_all_offsets(self, ex1_model):
        for r in (0, 1, 2):
            rep = divisibility_check(ex1_model, 5, r, 0)
            assert rep.passed, rep

    def test_vacuous_char2(self, ex1_model):
        rep = divisibility_check(ex1_model, 5, 0, 2)
        assert rep.passed and rep.vacuous

    def test_ex2(self, ex2_model):
        for r in (0, 1, 2):
            rep = divisibility_check(ex2_model, 6, r, 0)
            assert rep.passed

    def test_random_genus3(self, rng):
        m = random_integral_model(3, rng, coeff_bound=2)
        for r in range(5):
            rep = divisibility_check(m, 7, r, 0)
            assert rep.passed, (r, rep)

    def test_offset_range(self, ex1_model):
        with pytest.raises(UsageError):
            divisibility_check(ex1_model, 5, 3, 0)


class TestRankAt:
    def test_ex1_rational_points(self, ex1_model):
        assert rank_at(ex1_model, 5, FieldElement(QQ, 1)).is_torsion_x
        assert rank_at(ex1_model, 5, FieldElement(QQ, Fraction(0))).is_torsion_x
        rep = rank_at(ex1_model, 5, FieldElement(QQ, 2))
        assert not rep.is_torsion_x and rep.rank == 1 and rep.max_rank == 1

    def test_ex1_char2_extension_roots(self, ex1_model):
        F16 = make_extension(2, 4)
        loc = utilde(ex1_model, 5, 2)
        rd = roots_by_degree(loc.utilde, 4)
        for r in rd.get(4, []):
            assert rank_at(ex1_model, 5, r).is_torsion_x

    def test_rejects_a_characteristic_other_than_the_models(self, ex1_model):
        # a GF(7) model has no characteristic-zero matrix: its integer lift
        # is a choice of representatives, as for utilde
        m7 = reduce_mod_p(ex1_model, 7)
        with pytest.raises(UsageError):
            utilde(m7, 5, 0)
        with pytest.raises(UsageError):
            rank_at(m7, 5, FieldElement(QQ, 1))
        assert not rank_at(m7, 5, FieldElement(prime_field(7), 2)).is_torsion_x

    def test_two_torsion_guard(self, ex2_model):
        with pytest.raises(UsageError):
            rank_at(ex2_model, 6, FieldElement(QQ, 0))  # F(0) = 0 on y^2 = x^5 - x

    def test_consistency_with_locus(self, ex1_model, rng):
        # locus roots are rank-deficient; random non-roots are not
        loc = utilde(ex1_model, 7, 0)
        count = 0
        for _ in range(40):
            v = Fraction(rng.randint(-30, 30))
            if ex1_model.F(v) == 0 or loc.utilde(v) == 0:
                continue
            assert not rank_at(ex1_model, 7, FieldElement(QQ, v)).is_torsion_x
            count += 1
        assert count >= 20
