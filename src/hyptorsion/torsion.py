"""Torsion-locus extraction and the bound formulas around it.

The locus polynomial for level N is the radical of the prime-to-F part of
the gcd of all stripped subdeterminants of M_N.  Subdeterminants are folded
in colexicographic order (leftmost first, strongest divisibility first) with
two sound early exits:

* if the radical of the prime-to-F part of the running gcd is already the
  constant 1, the final locus is 1 (the full gcd divides the running gcd);
* once the running gcd stabilizes, the candidate locus h is checked to
  divide every remaining subdeterminant inside k[x]/(h) without expanding
  the determinants; success pins the locus to h exactly, failure folds the
  offending subdeterminant and resumes.

For levels 3 <= N <= 2g the affine locus is empty in every characteristic
(points of order between 3 and 2g do not lie on the embedded curve) and the
constant 1 is returned without touching the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curve import HyperellipticModel, integral_model, mu_nu, reduce_mod_p, resolve_char
from .divpoly import _reduced, build_M, delta, pi_subdet, s_sequence, subdet_indices
from .errors import TheoremViolation, UsageError
from .exactnum import QQ, FieldElement, prime_field
from .linalg import berkowitz_det_mod, scalar_rank
from .poly import Poly, ZZ, gcd_primitive, poly_gcd, squarefree_part, strip_coprime

__all__ = [
    "TorsionLocus",
    "utilde",
    "count_tilde",
    "BoundReport",
    "bounds",
    "epsilon",
    "divisibility_check",
    "DivisibilityReport",
    "rank_at",
    "RankReport",
    "subdet_count_bound",
    "normalize_locus",
]

_STABLE_FOLDS = 2  # unchanged gcd folds before attempting the modular shortcut
_SHORTCUT_MIN_REMAINING = 5


@dataclass(frozen=True)
class TorsionLocus:
    model: HyperellipticModel
    N: int
    char: int
    utilde: Poly  # monic squarefree, coprime to F
    subdets_used: tuple = ()
    all_subdets_zero_before: bool = False  # leftmost subdeterminant vanished
    note: str = ""

    @property
    def degree(self) -> int:
        return max(self.utilde.degree, 0)


def _field_dom(char: int):
    return QQ if char == 0 else prime_field(char)


def normalize_locus(g: Poly, F: Poly) -> Poly:
    """The monic radical of the prime-to-F part of g, over a field."""
    g = strip_coprime(g, F)
    if g.degree <= 0:
        return Poly.one(g.dom)
    return squarefree_part(g).monic()


def _fold(running: Poly | None, pi: Poly, char: int) -> Poly | None:
    if pi.is_zero:
        return running
    if char == 0:
        pi = pi if pi.dom is ZZ else pi.map_to(ZZ)
        return pi.primitive() if running is None else gcd_primitive(running, pi)
    pi = pi.monic()
    return pi if running is None else poly_gcd(running, pi)


def utilde(model: HyperellipticModel, N: int, char: int | None = None) -> TorsionLocus:
    """The monic squarefree polynomial whose roots are the x-coordinates of
    affine points of order dividing N but not dividing 2, over the algebraic
    closure in the given characteristic."""
    if N < 3:
        raise UsageError("N must be at least 3")
    char = resolve_char(model, char)
    model = integral_model(model)
    g = model.g
    dom = _field_dom(char)
    if char != 0:
        if reduce_mod_p(model, char) is None:
            raise UsageError(f"bad reduction at {char}")
    if N <= 2 * g:
        return TorsionLocus(
            model, N, char, Poly.one(dom), (), False, note=f"3<=N<=2g={2 * g}: locus empty"
        )
    seq = s_sequence(model, N - 1)
    F = _reduced(seq.FZ, char)
    indices = subdet_indices(g, N)
    running: Poly | None = None
    used: dict[tuple, None] = {}  # folded indices, in fold order
    delta_vanished = False
    stable = 0
    any_nonzero = False

    for pos, j in enumerate(indices, 1):
        if j in used:
            # folded early after a failed shortcut: running divides it, so
            # folding it again would leave running unchanged
            stable += 1
        else:
            pi = pi_subdet(model, N, j, char)
            if pos == 1:
                delta_vanished = pi.is_zero
            if not pi.is_zero:
                any_nonzero = True
            before = running
            running = _fold(running, pi, char)
            used[j] = None
            if running is None:
                continue
            if before is not None and running == before:
                stable += 1
            else:
                stable = 0
        if running.degree == 0:
            return TorsionLocus(model, N, char, Poly.one(dom), tuple(used), delta_vanished)
        if stable >= _STABLE_FOLDS and len(indices) - pos >= _SHORTCUT_MIN_REMAINING:
            h = _candidate_locus(running, F, char)
            if h.degree == 0:
                return TorsionLocus(model, N, char, Poly.one(dom), tuple(used), delta_vanished)
            bad = _first_unverified(model, N, indices[pos:], h)
            if bad is None:
                return TorsionLocus(model, N, char, h, tuple(used), delta_vanished)
            # fold the offending subdeterminant immediately and resume
            running = _fold(running, pi_subdet(model, N, bad, char), char)
            used[bad] = None
            stable = 0

    if not any_nonzero or running is None:
        raise TheoremViolation(
            f"all subdeterminants of the level-{N} matrix vanish in characteristic {char}; "
            "the matrix must have maximal rank"
        )
    final = _candidate_locus(running, F, char)
    return TorsionLocus(model, N, char, final, tuple(used), delta_vanished)


def _candidate_locus(running: Poly, F: Poly, char: int) -> Poly:
    if char == 0:
        return normalize_locus(running.map_to(QQ), F.map_to(QQ))
    return normalize_locus(running, F)


def _first_unverified(model, N, remaining, h: Poly):
    """First index whose stripped subdeterminant h fails to divide, else None.

    Each check runs inside k[x]/(h): reduction is a ring homomorphism, so a
    zero determinant there is exactly divisibility of the full determinant.
    All subdeterminants draw on the same few dozen base polynomials, whose
    residues mod h are computed once.  A linear h collapses to evaluating at
    its root and testing a scalar determinant.
    """
    dom = h.dom
    seq = s_sequence(model, N - 1)
    needed = sorted({jl - i for j in remaining for i in range(len(j)) for jl in j})
    residues = {}
    for m in needed:
        residues[m] = seq.s(m).map_to(dom) % h
    if h.degree == 1:
        root_vals = {m: residues[m].coeff(0) for m in needed}
        for j in remaining:
            n = len(j)
            rows = [[root_vals[jl - i] for jl in j] for i in range(n)]
            if scalar_rank(rows, dom) == n:
                return j
        return None
    for j in remaining:
        n = len(j)
        rows = [[residues[jl - i] for jl in j] for i in range(n)]
        if not berkowitz_det_mod(rows, h).is_zero:
            return j
    return None


def count_tilde(model: HyperellipticModel, N: int, char: int | None = None) -> int:
    """Number of affine points of order dividing N, not dividing 2, over the
    algebraic closure: each locus root carries the two points (x0, y0) and
    (x0, -Q(x0)-y0), distinct because the locus is coprime to F."""
    return 2 * utilde(model, N, char).degree


# ---------------------------------------------------------------------------
# bound formulas


def epsilon(r: int, g: int) -> int:
    """Exponent in the locus-power divisibility for offset r in [0, 2g-2]."""
    if not 0 <= r <= 2 * g - 2:
        raise UsageError(f"offset r={r} outside [0, {2 * g - 2}]")
    return (g - (r + 1) // 2) * (r // 2 + 1)


@dataclass(frozen=True)
class BoundReport:
    g: int
    N: int
    delta_bound: int | None  # generic degree of the leftmost stripped subdet
    worst_bound: int | None  # from the rightmost subdeterminant, any characteristic
    general_bound: int  # Riemann-Roch style bound on #(X ∩ J[N])
    general_bound_branch: str
    epsilon_table: tuple[int, ...]


def bounds(g: int, N: int, inseparable_p: int | None = None) -> BoundReport:
    """All bound families for genus g and level N.

    ``inseparable_p`` carries the characteristic when multiplication by p on
    the Jacobian is purely inseparable; the exceptional branch of the general
    bound applies when additionally N-1 is a power of that p.
    """
    if N < 3 or g < 1:
        raise UsageError("need N >= 3 and g >= 1")
    delta_bound = None
    worst = None
    if N >= 2 * g + 1:
        from .divpoly import delta_degree

        delta_bound = delta_degree(g, N)
        if N % 2 == 0:
            worst = g * (N * N - (2 * g) ** 2)
        else:
            worst = g * (N * N - (2 * g - 1) ** 2)
    branch = "separable"
    general = g * (N - 1) ** 2
    if inseparable_p is not None:
        m = N - 1
        p = inseparable_p
        ispow = m >= 1
        while m > 1:
            if m % p:
                ispow = False
                break
            m //= p
        if ispow:
            if N == 3 and p == 2:
                general = 25 * g
                branch = "inseparable, N=3, p=2"
            else:
                general = g * (N + 1) ** 2
                branch = "inseparable, N-1 a p-power"
    eps = tuple(epsilon(r, g) for r in range(0, 2 * g - 1))
    return BoundReport(g, N, delta_bound, worst, general, branch, eps)


def subdet_count_bound(model: HyperellipticModel, N: int, char: int | None = None):
    """min over nonzero stripped subdeterminants of
    (4g sum(j) - 2g mu(mu+1)) / (N - j_last), an upper bound for the count."""
    char = resolve_char(model, char)
    model = integral_model(model)
    g = model.g
    mn = mu_nu(g, N)
    best = None
    from fractions import Fraction

    for j in subdet_indices(g, N):
        if pi_subdet(model, N, j, char).is_zero:
            continue
        val = Fraction(4 * g * sum(j) - 2 * g * mn.mu * (mn.mu + 1), N - j[-1])
        if best is None or val < best:
            best = val
    if best is None:
        raise TheoremViolation("no nonzero subdeterminant; maximal rank is violated")
    return best


# ---------------------------------------------------------------------------
# divisibility of higher-level subdeterminants by locus powers


@dataclass(frozen=True)
class DivisibilityReport:
    N: int
    r: int
    char: int
    exponent: int
    passed: bool
    vacuous: bool
    locus_degree: int
    delta_degree: int  # -1 when the subdeterminant vanishes


def divisibility_check(model: HyperellipticModel, N: int, r: int, char: int | None = None) -> DivisibilityReport:
    """Check that utilde(N)^epsilon(r, g) divides delta(N + r) exactly.

    Vacuously true when delta(N + r) = 0.  A failure is reported, not raised:
    it falsifies the divisibility law and callers decide how loudly to exit.
    """
    char = resolve_char(model, char)
    model = integral_model(model)
    g = model.g
    if N < 2 * g + 1:
        raise UsageError("need N >= 2g+1")
    e = epsilon(r, g)
    locus = utilde(model, N, char)
    d = delta(model, N + r, char)
    if d.is_zero:
        return DivisibilityReport(N, r, char, e, True, True, locus.degree, -1)
    dd = d.degree
    u = locus.utilde
    if u.degree == 0:
        return DivisibilityReport(N, r, char, e, True, False, 0, dd)
    quotient = d if char != 0 else d.map_to(QQ)
    ok = True
    for _ in range(e):
        q, rem = divmod(quotient, u)
        if not rem.is_zero:
            ok = False
            break
        quotient = q
    return DivisibilityReport(N, r, char, e, ok, False, locus.degree, dd)


# ---------------------------------------------------------------------------
# pointwise rank test


@dataclass(frozen=True)
class RankReport:
    N: int
    rank: int
    max_rank: int
    is_torsion_x: bool


def rank_at(model: HyperellipticModel, N: int, x0: FieldElement) -> RankReport:
    """Evaluate the level-N matrix at x0 and test for rank collapse.

    Valid only where F(x0) != 0; the order-2 locus is read off F directly
    and this criterion does not apply there.
    """
    char = x0.spec.char
    M = build_M(model, N, char)
    if char != 0 and reduce_mod_p(M.model, char) is None:
        raise UsageError(f"bad reduction at {char}")
    if not _reduced(s_sequence(M.model, N - 1).FZ, char)(x0):
        raise UsageError("F(x0) = 0: order-2 locus, rank criterion inapplicable")
    rows = [[entry(x0).value for entry in row] for row in M.entries]
    rank = scalar_rank(rows, x0.spec)
    return RankReport(N, rank, len(rows), rank < len(rows))
