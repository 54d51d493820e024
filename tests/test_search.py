from math import gcd

import hyptorsion.exactnum as exactnum
import hyptorsion.search as search
from hyptorsion.curve import reduce_mod_p
from hyptorsion.exactnum import QQ, is_prime, prime_field
from hyptorsion.poly import Poly, ZZ, resultant
from hyptorsion.search import characteristic_search, factor_integer, reduction_scan
from hyptorsion.torsion import utilde
from conftest import random_integral_model


class TestFactorInteger:
    def test_small(self):
        assert factor_integer(2**5 * 3**2 * 911)[0] == {2: 5, 3: 2, 911: 1}
        assert factor_integer(1) == ({}, 1)
        assert factor_integer(-12)[0] == {2: 2, 3: 1}

    def test_rho_stage(self):
        p, q = 10_000_019, 10_000_079
        factors, cofactor = factor_integer(p * q, trial_bound=1000)
        assert cofactor == 1 and factors == {p: 1, q: 1}

    def test_honest_cofactor_without_rho(self):
        p, q = 10_000_019, 10_000_079
        factors, cofactor = factor_integer(p * q, trial_bound=1000, rho=False)
        assert factors == {} and cofactor == p * q

    @staticmethod
    def _trial_loop(n, bound):
        """factor_integer(n, bound, rho=False) by one n % d per odd d, the
        loop that block gcds replaced; kept as the reference."""
        n = abs(n)
        factors = {}
        d = 2
        while d <= bound and d * d <= n:
            while n % d == 0:
                factors[d] = factors.get(d, 0) + 1
                n //= d
            d += 1 if d == 2 else 2
        if n > 1 and (d * d > n or is_prime(n)):
            factors[n] = factors.get(n, 0) + 1
            n = 1
        return list(factors.items()), n

    def test_block_gcds_match_the_trial_loop(self, rng):
        # primes on both sides of the first block boundaries (2^14, 2^15)
        edge = [16381, 16411, 32749, 32771]
        primes = [p for p in range(2, 3000) if is_prime(p)] + edge
        for bound in (0, 1, 2, 7, 1000, 16383, 16384, 16385, 10**6):
            cases = [0, 1, -12, 16381**2, 16381 * 16411, 32749**2 * 7]
            for _ in range(30):
                n = 1
                for _ in range(rng.randrange(1, 6)):
                    n *= rng.choice(primes) ** rng.randrange(1, 4)
                cases.append(n * rng.choice([1, -1, rng.getrandbits(30)]))
            if bound <= 16385:
                cases += [rng.getrandbits(300) * rng.choice(primes) for _ in range(5)]
            for n in cases:
                factors, cofactor = factor_integer(n, bound, rho=False)
                assert (list(factors.items()), cofactor) == self._trial_loop(n, bound), (n, bound)

    def test_small_n_builds_only_the_first_block(self):
        exactnum._block_product.cache_clear()
        assert factor_integer(2**5 * 3**2 * 911)[0] == {2: 5, 3: 2, 911: 1}
        assert exactnum._block_product.cache_info().currsize == 1


class TestReductionScan:
    def test_ex1_small_range(self, ex1_model):
        verdicts = reduction_scan(ex1_model, range(3, 9), [3, 7, 11, 13])
        by_n = {v.N: v for v in verdicts}
        assert by_n[3].verdict == "EMPTY" and by_n[4].verdict == "EMPTY"  # guard
        assert by_n[5].verdict == "CANDIDATE"
        assert by_n[5].followup is not None and by_n[5].followup.degree == 6
        for n in (6, 7, 8):
            assert by_n[n].verdict == "EMPTY" and by_n[n].witness is not None

    def test_witness_skips_divisors_of_N(self, ex1_model):
        verdicts = reduction_scan(ex1_model, [6], [3, 2, 7])
        (v,) = verdicts
        notes = dict((p, note) for p, note in v.tried)
        assert notes[3] == "divides N" and notes[2] == "divides N"
        assert v.witness == 7

    def test_undecided_when_no_usable_prime(self, ex1_model):
        (v,) = reduction_scan(ex1_model, [6], [2, 3, 5])  # 2,3 | 6 and 5 is singular
        assert v.verdict == "UNDECIDED"

    def test_empty_monotone_under_more_primes(self, ex1_model):
        few = reduction_scan(ex1_model, range(6, 10), [7])
        more = reduction_scan(ex1_model, range(6, 10), [7, 11, 13, 19])
        for a, b in zip(few, more):
            if a.verdict == "EMPTY":
                assert b.verdict == "EMPTY"


class TestCharacteristicSearch:
    def test_ex4_exactly_911(self, ex1_model):
        rep = characteristic_search(ex1_model, 7)
        assert rep.generic_factor == Poly.one(QQ)
        assert [p for p, _ in rep.exceptional_primes] == [911]
        p, locus = rep.exceptional_primes[0]
        gf = prime_field(911)
        assert locus == Poly.of_ints(gf, [-433, 0, 0, 0, 0, 1])
        assert rep.unfactored_cofactor == 1
        assert 911 in rep.candidate_primes

    def test_ex5_generic_factor_x(self, ex5_model):
        rep = characteristic_search(ex5_model, 7)
        assert rep.generic_factor == Poly.x(QQ)
        # the printed cofactors share the root -3 of x^7 + 3 modulo 13
        assert 13 in [p for p, _ in rep.exceptional_primes]
        locus13 = dict(rep.exceptional_primes)[13]
        x13 = Poly.x(prime_field(13))
        assert locus13 == x13 * (x13**7 + 3)

    def test_ex1_n5_all_generic(self, ex1_model):
        rep = characteristic_search(ex1_model, 5)
        xq = Poly.x(QQ)
        assert rep.generic_factor == xq * (xq**5 - 1)
        assert rep.exceptional_primes == ()
        assert 5 in rep.common_content_primes  # total vanishing handled by reduction

    # Constructed stripped subdeterminants for ex1 at N = 7 (three of them),
    # each factor coprime to F = 4x^5 + 1: the search only sees pi_subdet.
    _X = Poly.x(ZZ)
    _A, _B, _C = _X + 2, _X**2 + 5, _X - 3

    def _search_with(self, monkeypatch, model, pis):
        it = iter(pis)
        monkeypatch.setattr(search, "pi_subdet", lambda *args: next(it))
        return characteristic_search(model, 7)

    def test_fewer_than_two_nontrivial_remainders(self, ex1_model, monkeypatch):
        G = self._X**2 + 3
        rep = self._search_with(monkeypatch, ex1_model, [G * self._A, G, G.scale(-4)])
        assert rep.note == "fewer than two nontrivial remainders; no pairwise resultants available"
        assert rep.generic_factor == G.map_to(QQ)
        assert (rep.resultant_gcd, rep.candidate_primes, rep.exceptional_primes) == (1, (), ())

    def test_remainders_share_a_rational_factor(self, ex1_model, monkeypatch):
        A, B, C = self._A, self._B, self._C
        rep = self._search_with(monkeypatch, ex1_model, [A * B, B * C, (C * A).scale(6)])
        assert rep.note.startswith("remainders share a rational factor")
        assert rep.generic_factor == Poly.one(QQ)
        assert (rep.resultant_gcd, rep.candidate_primes, rep.exceptional_primes) == (0, (), ())

    def test_pairs_sharing_a_factor_leave_the_gcd_unchanged(self, ex1_model, monkeypatch):
        A, B, C = self._A, self._B, self._C
        D = self._X + 1
        rep = self._search_with(monkeypatch, ex1_model, [A * B, B * C, D])
        assert rep.note == ""
        assert rep.resultant_gcd == gcd(resultant(A * B, D), resultant(B * C, D)) == 6
        assert rep.candidate_primes == (2, 3)

    def test_ex5_level11_runs_the_prs_only_on_coprime_pairs(self, ex5_model, prs_calls):
        rep = characteristic_search(ex5_model, 11)
        # the benchmark's golden report for (ex5, 11): 2 is exceptional, with locus x^7 + 1
        assert [(p, u.cs) for p, u in rep.exceptional_primes] == [(2, (1, 0, 0, 0, 0, 0, 0, 1))]
        assert (rep.candidate_primes, rep.unfactored_cofactor) == ((2, 5, 7, 11), 1)
        # GCDHEU certifies the pairs that share a factor; only the 9 coprime ones need the PRS
        assert len(prs_calls) <= 9

    def test_soundness_every_reported_prime_confirmed(self, ex1_model, ex5_model):
        for m, N in ((ex1_model, 7), (ex5_model, 7)):
            rep = characteristic_search(m, N)
            for p, locus in rep.exceptional_primes:
                direct = utilde(m, N, p)
                assert direct.utilde == locus
                from hyptorsion.jacobian import verify_utilde

                verify_utilde(m, N, p)  # raises on any failing root

    def test_candidate_completeness_small_primes(self, rng):
        # brute force: any prime <= 50 where the stripped remainders gain a
        # common root must divide the resultant gcd
        m = random_integral_model(2, rng, coeff_bound=2)
        rep = characteristic_search(m, 7)
        if rep.resultant_gcd == 0:
            return
        from hyptorsion.poly import _clear_denominators
        from hyptorsion.torsion import normalize_locus

        g0z = _clear_denominators(rep.generic_factor).primitive()
        FZ = (m.P * 4 + m.Q * m.Q).map_to(ZZ)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            if reduce_mod_p(m, p) is None:
                continue
            loc = utilde(m, 7, p)
            gf = prime_field(p)
            if loc.utilde != normalize_locus(g0z.map_to(gf), FZ.map_to(gf)):
                assert rep.resultant_gcd % p == 0 or p in rep.common_content_primes, (
                    p,
                    str(loc.utilde),
                )
