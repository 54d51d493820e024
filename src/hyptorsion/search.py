"""Cross-characteristic analysis.

Two tools:

* ``reduction_scan`` certifies emptiness of the level-N locus over QQ by
  reducing modulo witness primes: for a prime p of good reduction with
  p not dividing N, the reduction map is injective on the N-torsion of the
  Jacobian, so a constant locus mod p forces a constant locus over QQ.

* ``characteristic_search`` finds the finitely many characteristics where
  the locus jumps beyond its characteristic-independent part: strip the
  rational gcd, F-factors and integer content from each stripped
  subdeterminant, take the integer resultants of all pairs of remainders
  (a zero resultant marks a pair sharing a factor and leaves the gcd
  unchanged), and factor their gcd.  Every exceptional prime divides that
  gcd; each candidate is confirmed (or discarded) by recomputing the locus
  mod p, so the reported list is sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .curve import HyperellipticModel, integral_model, reduce_mod_p
from .divpoly import pi_subdet, subdet_indices
from .errors import UsageError
from .exactnum import QQ, factor_integer, prime_field
from .poly import Poly, ZZ, gcd_primitive, resultant, strip_coprime
from .torsion import TorsionLocus, normalize_locus, utilde

__all__ = [
    "ScanVerdict",
    "reduction_scan",
    "CharSearchReport",
    "characteristic_search",
    "factor_integer",
]


# ---------------------------------------------------------------------------
# reduction scan


@dataclass(frozen=True)
class ScanVerdict:
    N: int
    verdict: str  # "EMPTY" | "CANDIDATE" | "UNDECIDED"
    witness: int | None  # prime that certified emptiness
    tried: tuple[tuple[int, str], ...]  # (prime, outcome) log
    followup: TorsionLocus | None = None  # characteristic-zero locus, if computed


def _scan_one(model, N, primes, compute_char0_followup):
    g = model.g
    if N <= 2 * g:
        return ScanVerdict(N, "EMPTY", None, (("guard", f"3<=N<=2g={2 * g}"),))
    tried = []
    for p in primes:
        if N % p == 0:
            tried.append((p, "divides N"))
            continue
        if reduce_mod_p(model, p) is None:
            tried.append((p, "bad reduction"))
            continue
        locus = utilde(model, N, p)
        tried.append((p, f"degree {locus.degree}"))
        if locus.degree == 0:
            return ScanVerdict(N, "EMPTY", p, tuple(tried))
    usable = any(note.startswith("degree") for _, note in tried)
    if not usable:
        return ScanVerdict(N, "UNDECIDED", None, tuple(tried))
    followup = utilde(model, N, 0) if compute_char0_followup else None
    return ScanVerdict(N, "CANDIDATE", None, tuple(tried), followup)


def reduction_scan(
    model: HyperellipticModel,
    n_range,
    primes,
    compute_char0_followup: bool = True,
) -> list[ScanVerdict]:
    """Per-level emptiness verdicts for N in ``n_range`` using witness primes.

    EMPTY verdicts are certificates (injectivity of reduction on prime-to-p
    torsion under good reduction); CANDIDATE means every usable witness saw a
    nonconstant locus, and the characteristic-zero locus is attached when
    ``compute_char0_followup`` is set.  Levels where no witness applies at
    all come back UNDECIDED.
    """
    model = integral_model(model)
    ns = list(n_range)
    if any(N < 3 for N in ns):
        raise UsageError("levels start at 3")
    return [_scan_one(model, N, primes, compute_char0_followup) for N in ns]


# ---------------------------------------------------------------------------
# exceptional-characteristic search


@dataclass(frozen=True)
class CharSearchReport:
    N: int
    generic_factor: Poly  # monic over QQ: the characteristic-independent locus
    exceptional_primes: tuple[tuple[int, Poly], ...]  # (p, locus mod p)
    candidate_primes: tuple[int, ...]  # divisors of the resultant gcd, pre-confirmation
    resultant_gcd: int
    unfactored_cofactor: int  # 1 unless factoring gave up
    common_content_primes: tuple[int, ...]  # vanish-everywhere primes, handled by reduction
    skipped: tuple[tuple[int, str], ...]  # candidates not confirmable (bad reduction, ...)
    note: str = ""


def characteristic_search(
    model: HyperellipticModel, N: int, trial_bound: int = 10**6
) -> CharSearchReport:
    """Characteristics where the level-N locus exceeds its generic part.

    Sound: every reported prime is confirmed by recomputing the locus mod p.
    Complete up to the reported unfactored cofactor and the common-content
    primes (where all subdeterminants vanish mod p; those are the regime the
    reduction scan handles directly).
    """
    model = integral_model(model)
    g = model.g
    if N < 2 * g + 1:
        raise UsageError("need N >= 2g+1")
    indices = subdet_indices(g, N)
    pis = [pi_subdet(model, N, j, 0) for j in indices]
    nonzero = [p_ for p_ in pis if not p_.is_zero]
    if not nonzero:
        raise UsageError("all subdeterminants vanish over QQ")
    content_gcd = 0
    for p_ in nonzero:
        content_gcd = gcd(content_gcd, p_.content())
    content_factors, _ = factor_integer(content_gcd, trial_bound)
    g0 = None
    for p_ in nonzero:
        g0 = p_.primitive() if g0 is None else gcd_primitive(g0, p_)
    generic = g0.map_to(QQ).monic()
    FZ = model.F.map_to(ZZ)
    remainders = []
    for p_ in nonzero:
        r = p_.primitive()
        if g0.degree > 0:
            r = strip_coprime(r, g0)
        r = strip_coprime(r, FZ)
        if r.degree > 0:
            remainders.append(r)
    # a pair sharing a factor has resultant 0, which leaves the gcd unchanged
    res_gcd = 0
    for ri, rj in combinations(remainders, 2):
        res_gcd = gcd(res_gcd, resultant(ri, rj))
    if res_gcd == 0:
        if len(remainders) <= 1:
            note = "fewer than two nontrivial remainders; no pairwise resultants available"
            res_gcd = 1
        else:
            note = (
                "remainders share a rational factor; reporting it via the generic part, "
                "no resultant data"
            )
        return CharSearchReport(
            N, generic, (), (), res_gcd, 1,
            tuple(sorted(content_factors)), (), note,
        )
    factors, cofactor = factor_integer(res_gcd, trial_bound)
    candidates = tuple(sorted(factors))
    exceptional = []
    skipped = []
    for p in candidates:
        if reduce_mod_p(model, p) is None:
            skipped.append((p, "bad reduction"))
            continue
        locus_p = utilde(model, N, p)
        gf = prime_field(p)
        # the unexceptional locus mod p: g0 is primitive over ZZ, so primes
        # dividing its leading coefficient reduce with a degree drop
        expected = normalize_locus(g0.map_to(gf), FZ.map_to(gf))
        if locus_p.utilde != expected:
            exceptional.append((p, locus_p.utilde))
    return CharSearchReport(
        N,
        generic,
        tuple(exceptional),
        candidates,
        res_gcd,
        cofactor,
        tuple(sorted(content_factors)),
        tuple(skipped),
    )
