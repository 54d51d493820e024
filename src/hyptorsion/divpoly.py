"""The division-polynomial engine.

For an integral odd-degree model the sequence s_n is produced by a first
order recursion that lives entirely in ZZ[x]: writing the n-th scaled
numerator as R_n, with R_0 = 1 and F = 4P + Q^2,

    R_{n+1} = 2 R_n' F + (1 - 2n) R_n F',

the division polynomial is s_n = R_n / (2^(n+1) n!) for n > g, and the
division is exact with integer result; a failure of that integrality is a
falsification and aborts loudly.  In characteristic zero s_n has degree
2gn and leading coefficient 2^(n-1) C(2g+1, n) / n! where C(m, n) is the
double factorial style product m(m-2)(m-4)...(m-2n+2).

Row-i entries expand through powers of F:

    s_{i,m} = sum_{l=1..i} binom(i,l) x^l F^(i-l) s_{m-i+l}  +  F^i s_{m-i},

and the (mu+1) x (mu+g) matrix M_N has entry (i, j) = s_{i, nu+j-1}.  The
square subdeterminants of M_N are divisible by F^(mu(mu+1)/2); the stripped
quotients are computed directly as determinants of the companion matrices
S_j with entry s_{j_l - i}, which is also how they are cross-checked.

Everything is computed over ZZ first and only then reduced mod p (the
recursion divides by n! and 2, so it cannot run in small characteristic;
reduction commutes with every construction here).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .curve import HyperellipticModel, MuNu, integral_model, mu_nu, resolve_char
from .errors import TheoremViolation, UsageError
from .exactnum import prime_field
from .linalg import bareiss_det
from .poly import Poly, ZZ, exact_div

__all__ = [
    "cmn",
    "SSequence",
    "s_sequence",
    "DivMatrix",
    "build_M",
    "subdet_indices",
    "pi_subdet",
    "gamma",
    "delta",
    "cantor_P",
    "delta_degree",
    "delta_leading_coeff",
    "classical_sign",
]


def cmn(m: int, n: int) -> int:
    """C(m, n) = prod_{r=0}^{n-1} (m - 2r); nonzero whenever m is odd."""
    out = 1
    for r in range(n):
        out *= m - 2 * r
    return out


def delta_degree(g: int, N: int) -> int:
    """Generic degree of the stripped leftmost subdeterminant."""
    if N < 2 * g + 1:
        raise UsageError(f"N={N} below 2g+1")
    if N % 2 == 0:
        return g * (N + 2) * (N - 2 * g) // 2
    return g * (N + 1) * (N - 2 * g + 1) // 2


def delta_leading_coeff(g: int, N: int) -> int:
    """Characteristic-zero leading coefficient of delta(N); always an integer."""
    mn = mu_nu(g, N)
    mu, nu = mn.mu, mn.nu
    num = 1
    for i in range(1, mu + 2):
        num *= cmn(2 * g + 2 * i - 1, nu)
        num *= factorial(i - 1)
    den = 1
    for j in range(1, mu + 2):
        den *= factorial(nu + j - 1)
    lc = Fraction(2 ** ((nu - 1) * (mu + 1)) * num, den)
    if lc.denominator != 1:
        raise TheoremViolation(f"closed-form leading coefficient {lc} is not integral")
    return lc.numerator


# ---------------------------------------------------------------------------
# the s_n sequence


class SSequence:
    """Memoized division-polynomial sequence for one integral model."""

    def __init__(self, model: HyperellipticModel):
        model = integral_model(model)
        self.model = model
        self.PZ = model.P.map_to(ZZ)
        self.QZ = model.Q.map_to(ZZ)
        self.FZ = self.PZ * 4 + self.QZ * self.QZ
        self._FdZ = self.FZ.deriv()
        self._R = [Poly.one(ZZ)]
        self._s: dict[int, Poly] = {}
        self._F_pows = [Poly.one(ZZ)]

    @property
    def g(self) -> int:
        return self.model.g

    @property
    def n_max(self) -> int:
        return len(self._R) - 1

    def ensure(self, n_max: int) -> None:
        while self.n_max < n_max:
            n = self.n_max
            Rn = self._R[-1]
            self._R.append(Rn.deriv() * self.FZ * 2 + Rn.scale(1 - 2 * n) * self._FdZ)

    def s(self, n: int) -> Poly:
        """s_n over ZZ, defined for n > g."""
        if n <= self.g:
            raise UsageError(f"s_{n} is not integral for n <= g = {self.g}")
        got = self._s.get(n)
        if got is not None:
            return got
        self.ensure(n)
        denom = (1 << (n + 1)) * factorial(n)
        coeffs = []
        for c in self._R[n].cs:
            q, r = divmod(c, denom)
            if r:
                raise TheoremViolation(
                    f"s_{n} has a non-integral coefficient ({c}/{denom}); "
                    "integrality of the division polynomials is violated"
                )
            coeffs.append(q)
        out = Poly(ZZ, coeffs)
        self._s[n] = out
        return out

    def F_power(self, e: int) -> Poly:
        while len(self._F_pows) <= e:
            self._F_pows.append(self._F_pows[-1] * self.FZ)
        return self._F_pows[e]

    def s_entry(self, i: int, m: int) -> Poly:
        """s_{i,m} over ZZ; needs m - i > g so all referenced s indices exist."""
        if i == 0:
            return self.s(m)
        if m - i <= self.g:
            raise UsageError(f"s_({i},{m}) needs m - i > g")
        acc = self.F_power(i) * self.s(m - i)
        xpow = Poly.one(ZZ)
        for ell in range(1, i + 1):
            xpow = xpow.shift(1)  # x^ell
            term = xpow.scale(comb(i, ell)) * self.F_power(i - ell) * self.s(m - i + ell)
            acc = acc + term
        return acc


_SEQ_CACHE_MAX = 32  # models kept; the least recently used one is evicted
_SEQ_CACHE: OrderedDict[HyperellipticModel, SSequence] = OrderedDict()


def s_sequence(model: HyperellipticModel, n_max: int) -> SSequence:
    """The s_(g+1..n_max) sequence for a model, memoized per model."""
    model = integral_model(model)
    if n_max < model.g + 1:
        raise UsageError("n_max must be at least g+1")
    seq = _SEQ_CACHE.get(model)
    if seq is None:
        seq = SSequence(model)
        _SEQ_CACHE[model] = seq
        if len(_SEQ_CACHE) > _SEQ_CACHE_MAX:
            _SEQ_CACHE.popitem(last=False)
    else:
        _SEQ_CACHE.move_to_end(model)
    seq.ensure(n_max)
    return seq


def _reduced(f: Poly, char: int) -> Poly:
    return f if char == 0 else f.map_to(prime_field(char))


# ---------------------------------------------------------------------------
# the matrix M_N and its subdeterminants


@dataclass(frozen=True)
class DivMatrix:
    model: HyperellipticModel
    N: int
    munu: MuNu
    char: int
    entries: tuple  # (mu+1) rows x (mu+g) columns of Poly


def build_M(model: HyperellipticModel, N: int, char: int | None = None) -> DivMatrix:
    """The (mu+1) x (mu+g) matrix with entry (i, j) = s_{i, nu+j-1}."""
    char = resolve_char(model, char)
    model = integral_model(model)
    mn = mu_nu(model.g, N)
    seq = s_sequence(model, N - 1)
    rows = []
    for i in range(mn.mu + 1):
        rows.append(
            tuple(_reduced(seq.s_entry(i, mn.nu + j - 1), char) for j in range(1, mn.mu + model.g + 1))
        )
    return DivMatrix(model, N, mn, char, tuple(rows))


def subdet_indices(g: int, N: int) -> list[tuple[int, ...]]:
    """All strictly increasing (mu+1)-tuples in [nu, N-1], colex order.

    Colex puts the leftmost tuple (nu, ..., nu+mu) first and sorts by the
    largest entry, so the subdeterminants carrying the strongest
    divisibility information come first.
    """
    from itertools import combinations

    mn = mu_nu(g, N)
    combos = combinations(range(mn.nu, N), mn.mu + 1)
    return sorted(combos, key=lambda t: t[::-1])


def _check_index(model: HyperellipticModel, N: int, j: tuple[int, ...]) -> MuNu:
    mn = mu_nu(model.g, N)
    if len(j) != mn.mu + 1 or any(b <= a for a, b in zip(j, j[1:])):
        raise UsageError(f"index tuple {j} is not strictly increasing of length mu+1")
    if j[0] < mn.nu or j[-1] > N - 1:
        raise UsageError(f"index tuple {j} outside [nu={mn.nu}, N-1={N - 1}]")
    return mn


def s_companion_rows(model: HyperellipticModel, N: int, j: tuple[int, ...], char: int | None = None):
    """Rows of the stripped companion matrix: entry (i, l) = s_{j_l - i}."""
    char = resolve_char(model, char)
    mn = _check_index(model, N, j)
    seq = s_sequence(model, N - 1)
    return [
        [_reduced(seq.s(jl - i), char) for jl in j]
        for i in range(mn.mu + 1)
    ]


def pi_subdet(model: HyperellipticModel, N: int, j: tuple[int, ...], char: int | None = None) -> Poly:
    """The F-power-stripped subdeterminant for column choice j.

    Computed as the determinant of the companion matrix with entries
    s_{j_l - i}, which equals det of the corresponding submatrix of M_N
    divided by F^(mu(mu+1)/2).  Entries are reduced mod p before the
    fraction-free elimination; the result equals the integer determinant
    reduced mod p, determinants being compatible with reduction.
    """
    return bareiss_det(s_companion_rows(model, N, j, char))


def gamma(model: HyperellipticModel, N: int, char: int | None = None) -> Poly:
    """Determinant of the leftmost square submatrix of M_N."""
    char = resolve_char(model, char)
    model = integral_model(model)
    mn = mu_nu(model.g, N)
    seq = s_sequence(model, N - 1)
    rows = [
        [_reduced(seq.s_entry(i, mn.nu + ell), char) for ell in range(mn.mu + 1)]
        for i in range(mn.mu + 1)
    ]
    return bareiss_det(rows)


def delta(model: HyperellipticModel, N: int, char: int | None = None) -> Poly:
    """gamma divided exactly by F^(mu(mu+1)/2), cross-checked two ways.

    Route one divides the leftmost subdeterminant of M_N by the F power;
    route two evaluates the stripped companion determinant directly.  Any
    disagreement (or an inexact division) is a falsification.
    """
    char = resolve_char(model, char)
    model = integral_model(model)
    mn = mu_nu(model.g, N)
    e = mn.mu * (mn.mu + 1) // 2
    gam = gamma(model, N, char)
    seq = s_sequence(model, N - 1)
    Fpow = _reduced(seq.F_power(e), char)
    if gam.is_zero:
        quotient = gam
    else:
        quotient = exact_div(gam, Fpow)
    direct = pi_subdet(model, N, tuple(range(mn.nu, mn.nu + mn.mu + 1)), char)
    if quotient != direct:
        raise TheoremViolation(
            f"stripped leftmost subdeterminant disagrees between routes at N={N}, char={char}"
        )
    return quotient


def classical_sign(g: int, N: int) -> int:
    """Sign relating delta(N) to the classical normalization P_{N-g+1}."""
    mn = mu_nu(g, N)
    half = N // 2
    exponent = (1 - half) * (mn.mu + 1) + (mn.mu + 1) // 2
    return -1 if exponent % 2 else 1


def cantor_P(model: HyperellipticModel, N: int, char: int | None = None) -> Poly:
    """delta(N) with the sign that matches the classical division polynomial."""
    d = delta(model, N, char)
    if classical_sign(integral_model(model).g, N) < 0:
        return -d
    return d
