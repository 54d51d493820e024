"""Dense univariate polynomials over ZZ, QQ, GF(p) and GF(p^k).

Coefficients are stored ascending in a tuple whose last entry is nonzero;
the zero polynomial is the empty tuple and reports degree -1.  The domain
object (``ZZ`` or a ``FieldSpec``) carries the scalar operations, so hot
kernels (multiplication, division) can pick fast paths: schoolbook with a
Karatsuba split above degree 32 on integer coefficients (also for GF(p)
products too short or too wide for numpy, reduced mod p once), and numpy
arrays for other GF(p) products.  A GF(p) convolution is exact in float64
while min(len a, len b)·(p−1)² < 2⁵³ and in int64 below 2⁶²; past that it
runs on Python ints.  GF(p) division with a long quotient multiplies by a
Newton reciprocal of the reversed divisor and checks the remainder through
the full product; a short quotient (Euclid's steps) uses long division on
an int64 array, and moduli with (p−1)² ≥ 2⁶², whose products would wrap
there, use plain Python.  GF(p) addition, subtraction, negation and
scaling of long polynomials are array operations too.

Everything here is pure; polynomials never mutate after construction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt, lcm

import numpy as np

from .errors import InexactDivisionError, TheoremViolation, UsageError
from .exactnum import FIELD_CACHE_SIZE, QQ, FieldElement, FieldSpec, _power, factor_integer, make_extension

__all__ = [
    "ZZ",
    "Poly",
    "hasse_derivative",
    "poly_gcd",
    "gcd_primitive",
    "strip_coprime",
    "squarefree_part",
    "resultant",
    "exact_div",
    "roots_by_degree",
    "rational_roots",
    "subfield_embedding",
    "parse_poly",
]

_KARATSUBA_AT = 32


class IntegerRing:
    """Marker domain for ZZ[x]; quacks like FieldSpec minus division."""

    kind = "integers"
    char = 0
    is_finite = False
    p = None

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n

    def is_zero(self, v):
        return v == 0

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def fmt(self, v):
        return str(v)

    def parse(self, text):
        return int(text)

    def __repr__(self):
        return "ZZ"


ZZ = IntegerRing()


def _is_numeric_dom(dom) -> bool:
    """Domains whose raw values support native +,*,- (int, Fraction)."""
    return dom is ZZ or (isinstance(dom, FieldSpec) and dom.kind == "rationals")


# ---------------------------------------------------------------------------
# multiplication kernels


def _mul_native(a, b):
    """Schoolbook/Karatsuba over int or Fraction coefficient sequences."""
    na, nb = len(a), len(b)
    if min(na, nb) >= _KARATSUBA_AT and max(na, nb) <= 2 * min(na, nb):
        m = min(na, nb) // 2
        a0, a1 = a[:m], a[m:]
        b0, b1 = b[:m], b[m:]
        z0 = _mul_native(a0, b0)
        z2 = _mul_native(a1, b1)
        sa = [x + y for x, y in zip(a0, a1)] + list(a1[len(a0):]) + list(a0[len(a1):])
        sb = [x + y for x, y in zip(b0, b1)] + list(b1[len(b0):]) + list(b0[len(b1):])
        z1 = _mul_native(sa, sb)
        out = [0] * (na + nb - 1)
        for i, v in enumerate(z0):
            out[i] += v
        for i, v in enumerate(z2):
            out[i + 2 * m] += v
        for i, v in enumerate(z1):
            out[i + m] += v
        for i, v in enumerate(z0):
            out[i + m] -= v
        for i, v in enumerate(z2):
            out[i + m] -= v
        return out
    out = [0] * (na + nb - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _mul_spec(a, b, spec):
    out = [spec.zero()] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not spec.is_zero(ai):
            for j, bj in enumerate(b):
                out[i + j] = spec.add(out[i + j], spec.mul(ai, bj))
    return out


# ---------------------------------------------------------------------------
# GF(p) array kernels
#
# GF(p) coefficients are residues in [0, p).  A convolution of residue
# sequences has partial sums below min(len a, len b)·(p−1)², so it is exact
# in float64 while that bound is below 2⁵³ (such integers are represented
# exactly, in whatever order BLAS sums them) and in int64 below 2⁶²; past
# that only Python ints are safe.

_F64_EXACT = 1 << 53
_I64_EXACT = 1 << 62
_ARRAY_AT = 64  # GF(p) add/sub/neg/scale use numpy from this many coefficients
_NEWTON_AT = 32  # GF(p) quotients this long are found by a Newton reciprocal


def _conv_np_ok(p: int, n: int) -> bool:
    """Whether ``_conv`` is exact when the shorter factor has n terms."""
    return n * (p - 1) * (p - 1) < _I64_EXACT


def _conv(a, b, p):
    """a·b mod p as an int64 array, for residue sequences (or int64 arrays)
    with ``_conv_np_ok(p, min(len(a), len(b)))``."""
    if min(len(a), len(b)) * (p - 1) * (p - 1) < _F64_EXACT:
        out = np.fmod(np.convolve(np.asarray(a, np.float64), np.asarray(b, np.float64)), p)
        return out.astype(np.int64)
    out = np.convolve(np.asarray(a, np.int64), np.asarray(b, np.int64))
    out %= p
    return out


def _trimmed(arr) -> list:
    """The entries of a 1-d array up to its last nonzero one, as a list."""
    nz = np.flatnonzero(arr)
    return arr[: nz[-1] + 1].tolist() if nz.size else []


def _gfp_arrays(dom, n: int) -> bool:
    """Whether elementwise GF(p) work on n coefficients goes to numpy."""
    return n >= _ARRAY_AT and dom.kind == "prime" and _conv_np_ok(dom.p, 1)


def _mul_gfp(a, b, p):
    na, nb = len(a), len(b)
    if min(na, nb) >= 16 and _conv_np_ok(p, min(na, nb)):
        return _conv(a, b, p).tolist()
    return [c % p for c in _mul_native(a, b)]


def _addsub_gfp(a, b, p, sign):
    """a + sign·b mod p, trimmed, for residue sequences and sign = ±1."""
    out = np.zeros(max(len(a), len(b)), np.int64)
    out[: len(a)] = a
    out[: len(b)] += sign * np.asarray(b, np.int64)
    out %= p
    return _trimmed(out)


# ---------------------------------------------------------------------------
# the polynomial type


class Poly:
    # _inv memoizes, for a GF(p) divisor b, a prefix of the power series
    # 1/rev(b) (see ``_rev_inverse``); it is not part of the value.
    __slots__ = ("dom", "cs", "_inv")

    def __init__(self, dom, coeffs):
        if dom is QQ:
            coeffs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        cs = list(coeffs)
        while cs and dom.is_zero(cs[-1]):
            cs.pop()
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cs", tuple(cs))
        object.__setattr__(self, "_inv", None)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, dom):
        return cls(dom, ())

    @classmethod
    def one(cls, dom):
        return cls(dom, (dom.one(),))

    @classmethod
    def x(cls, dom):
        return cls(dom, (dom.zero(), dom.one()))

    @classmethod
    def const(cls, dom, v):
        return cls(dom, (v,))

    @classmethod
    def of_ints(cls, dom, ints):
        return cls(dom, [dom.from_int(n) for n in ints])

    # -- structure -----------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.cs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.cs

    @property
    def lc(self):
        if not self.cs:
            raise UsageError("zero polynomial has no leading coefficient")
        return self.cs[-1]

    def coeff(self, i):
        return self.cs[i] if 0 <= i < len(self.cs) else self.dom.zero()

    def is_constant(self) -> bool:
        return len(self.cs) <= 1

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.dom == other.dom and self.cs == other.cs
        if isinstance(other, int):
            return self == Poly.of_ints(self.dom, [other])
        return NotImplemented

    def __hash__(self):
        return hash((id(self.dom) if self.dom is ZZ else self.dom, self.cs))

    def __bool__(self):
        return bool(self.cs)

    # -- ring operations -------------------------------------------------------

    def _check(self, other) -> "Poly":
        if isinstance(other, int):
            return Poly.of_ints(self.dom, [other])
        if not isinstance(other, Poly):
            raise TypeError(f"cannot combine Poly and {type(other)!r}")
        if other.dom is not self.dom and other.dom != self.dom:
            raise UsageError(f"domain mismatch: {self.dom!r} vs {other.dom!r}")
        return other

    def __add__(self, other):
        other = self._check(other)
        dom = self.dom
        a, b = self.cs, other.cs
        if _gfp_arrays(dom, max(len(a), len(b))):
            return Poly(dom, _addsub_gfp(a, b, dom.p, 1))
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] = dom.add(out[i], v)
        return Poly(dom, out)

    __radd__ = __add__

    def __neg__(self):
        dom = self.dom
        if _gfp_arrays(dom, len(self.cs)):
            return Poly(dom, (-np.array(self.cs, np.int64) % dom.p).tolist())
        return Poly(dom, [dom.neg(c) for c in self.cs])

    def __sub__(self, other):
        other = self._check(other)
        dom = self.dom
        a, b = self.cs, other.cs
        if _gfp_arrays(dom, max(len(a), len(b))):
            return Poly(dom, _addsub_gfp(a, b, dom.p, -1))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + self._check(other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(self.dom.from_int(other))
        other = self._check(other)
        if self.is_zero or other.is_zero:
            return Poly.zero(self.dom)
        dom = self.dom
        if _is_numeric_dom(dom):
            return Poly(dom, _mul_native(self.cs, other.cs))
        if dom.kind == "prime":
            return Poly(dom, _mul_gfp(self.cs, other.cs, dom.p))
        return Poly(dom, _mul_spec(self.cs, other.cs, dom))

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        dom = self.dom
        if dom.is_zero(c):
            return Poly.zero(dom)
        if _gfp_arrays(dom, len(self.cs)):
            return Poly(dom, _trimmed(np.array(self.cs, np.int64) * (c % dom.p) % dom.p))
        return Poly(dom, [dom.mul(v, c) for v in self.cs])

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k."""
        if self.is_zero:
            return self
        return Poly(self.dom, (self.dom.zero(),) * k + self.cs)

    def __pow__(self, e: int):
        if e < 0:
            raise UsageError("negative polynomial power")
        return _power(Poly.__mul__, Poly.one(self.dom), self, e)

    # -- division ----------------------------------------------------------------

    def __divmod__(self, other):
        other = self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        dom = self.dom
        if dom is ZZ:
            return _divmod_zz(self, other)
        if dom.kind == "prime" and len(self.cs) > 256 and _conv_np_ok(dom.p, 1):
            q, r = _divmod_gfp(self.cs, other, dom.p)
            return Poly(dom, q), Poly(dom, r)
        db = other.degree
        inv_lc = dom.inv(other.lc)
        rem = list(self.cs)
        qcs = [dom.zero()] * max(len(rem) - db, 0)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if dom.is_zero(c):
                continue
            qc = dom.mul(c, inv_lc)
            qcs[i - db] = qc
            for j, bj in enumerate(other.cs):
                rem[i - db + j] = dom.sub(rem[i - db + j], dom.mul(qc, bj))
        return Poly(dom, qcs), Poly(dom, rem[:db])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        dom = self.dom
        if dom is ZZ:
            raise UsageError("monic normalization needs a field; map to QQ first")
        if self.lc == dom.one():
            return self
        return self.scale(dom.inv(self.lc))

    # -- calculus -------------------------------------------------------------

    def deriv(self) -> "Poly":
        dom = self.dom
        return Poly(dom, [dom.mul(c, dom.from_int(i)) for i, c in enumerate(self.cs)][1:])

    # -- evaluation -------------------------------------------------------------

    def __call__(self, x):
        """Evaluate by Horner.  ``x`` may be a raw value in this polynomial's
        domain, or a FieldElement of a field the coefficients inject into
        (same characteristic; integer or prime-field coefficients become
        constants there)."""
        if isinstance(x, FieldElement):
            spec = x.spec
            xv = x.value
            acc = spec.zero()
            if self.dom is ZZ or (isinstance(self.dom, FieldSpec) and self.dom.kind == "prime"):
                if self.dom is not ZZ and self.dom.p != spec.char:
                    raise UsageError("characteristic mismatch in evaluation")
                for c in reversed(self.cs):
                    acc = spec.add(spec.mul(acc, xv), spec.from_int(c))
            elif self.dom == spec:
                for c in reversed(self.cs):
                    acc = spec.add(spec.mul(acc, xv), c)
            else:
                raise UsageError("cannot evaluate coefficients in the point's field")
            return FieldElement(spec, acc)
        dom = self.dom
        acc = dom.zero()
        if dom is QQ and isinstance(x, int):
            x = Fraction(x)
        for c in reversed(self.cs):
            acc = dom.add(dom.mul(acc, x), c)
        return acc

    # -- domain changes ------------------------------------------------------------

    def map_to(self, target) -> "Poly":
        src = self.dom
        if target is src or target == src:
            return self
        if src is ZZ:
            return Poly(target, [target.from_int(c) for c in self.cs])
        if src == QQ:
            if target is ZZ:
                if any(c.denominator != 1 for c in self.cs):
                    raise UsageError("non-integral coefficients")
                return Poly(ZZ, [c.numerator for c in self.cs])
            if isinstance(target, FieldSpec) and target.is_finite:
                p = target.char
                out = []
                for c in self.cs:
                    if c.denominator % p == 0:
                        raise UsageError(f"coefficient {c} is not {p}-integral")
                    out.append(
                        target.mul(
                            target.from_int(c.numerator),
                            target.inv(target.from_int(c.denominator)),
                        )
                    )
                return Poly(target, out)
        if isinstance(src, FieldSpec) and src.kind == "prime":
            if target is ZZ:
                return Poly(ZZ, list(self.cs))
            if (
                isinstance(target, FieldSpec)
                and target.kind == "ext"
                and target.p == src.p
            ):
                return Poly(target, [target.from_int(c) for c in self.cs])
        raise UsageError(f"unsupported domain change {src!r} -> {target!r}")

    # -- ZZ-specific helpers ----------------------------------------------------

    def content(self) -> int:
        if self.dom is not ZZ:
            raise UsageError("content is for ZZ[x]")
        g = 0
        for c in self.cs:
            g = gcd(g, c)
        return g

    def primitive(self) -> "Poly":
        """Primitive part with positive leading coefficient."""
        if self.is_zero:
            return self
        g = self.content()
        if self.lc < 0:
            g = -g
        return Poly(ZZ, [c // g for c in self.cs])

    # -- text forms ------------------------------------------------------------

    def to_csv(self) -> str:
        return ",".join(self.dom.fmt(c) if self.dom is not ZZ else str(c) for c in self.cs)

    def __str__(self):
        if self.is_zero:
            return "0"
        dom = self.dom
        terms = []
        for i in range(len(self.cs) - 1, -1, -1):
            c = self.cs[i]
            if dom.is_zero(c):
                continue
            if isinstance(dom, FieldSpec) and dom.kind == "ext":
                cstr = "(" + dom.fmt(c) + ")"
                sign = "+"
            else:
                sign = "-" if c < 0 else "+"
                cstr = str(-c if c < 0 else c)
            if i == 0:
                terms.append((sign, cstr))
            elif cstr == "1":
                terms.append((sign, "x" if i == 1 else f"x^{i}"))
            else:
                terms.append((sign, f"{cstr}*x" if i == 1 else f"{cstr}*x^{i}"))
        first_sign, first = terms[0]
        out = ("-" if first_sign == "-" else "") + first
        for sign, t in terms[1:]:
            out += f" {sign} {t}"
        return out

    def __repr__(self):
        return f"Poly({self.dom!r}, {self})"


# ---------------------------------------------------------------------------
# ZZ division (exact or by monic divisors)


def _divmod_zz(a: Poly, b: Poly):
    db = b.degree
    lcb = b.lc
    rem = list(a.cs)
    qcs = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        if c % lcb != 0:
            return Poly(ZZ, qcs), Poly(ZZ, rem[: i + 1])
        qc = c // lcb
        qcs[i - db] = qc
        for j, bj in enumerate(b.cs):
            rem[i - db + j] -= qc * bj
    return Poly(ZZ, qcs), Poly(ZZ, rem[:db])


# ---------------------------------------------------------------------------
# GF(p) division


def _rev_inverse(b: Poly, k: int, p: int):
    """The first k coefficients of the power series 1/rev(b), rev(b) being b
    with its coefficients reversed, as an int64 array.

    Newton iteration doubles the precision n of g = 1/rev(b) mod x^n: with
    rev(b)·g = 1 + x^n·e, the next n coefficients of g are those of -g·e.
    The result is kept on b and extended when a longer prefix is asked for,
    so the many divisions by one Bareiss pivot share one reciprocal.
    """
    g = b._inv
    if g is None:
        g = np.array([pow(b.cs[-1], p - 2, p)], np.int64)
    n = len(g)
    if n < k:
        f = np.zeros(k, np.int64)
        f[: len(b.cs)] = b.cs[::-1][:k]
        while n < k:
            n2 = min(2 * n, k)
            e = _conv(f[:n2], g, p)[n:n2]
            g = np.concatenate((g, -_conv(g[: n2 - n], e, p)[: n2 - n] % p))
            n = n2
        object.__setattr__(b, "_inv", g)
    return g[:k]


def _divmod_gfp(a, b: Poly, p):
    """(quotient, remainder) coefficient lists of a by b over GF(p), for
    p with ``_conv_np_ok(p, 1)``; the remainder list is trimmed.

    A quotient of k >= _NEWTON_AT terms is rev(a)·(1/rev(b)) mod x^k,
    reversed (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 9).
    The remainder is a - q·b from the full product, whose part of degree
    >= deg b must vanish: that check is independent of the reciprocal.
    Shorter quotients, as in Euclid's steps, are cheaper by long division,
    one array update per quotient term.
    """
    bs = b.cs
    db = len(bs) - 1
    k = len(a) - db
    rem = np.array(a, np.int64)
    if k >= _NEWTON_AT and _conv_np_ok(p, k):
        q = _conv(rem[::-1][:k], _rev_inverse(b, k, p), p)[k - 1 :: -1]
        rem -= _conv(q, bs, p)
        rem %= p
        r = _trimmed(rem)
        if len(r) > db:
            raise AssertionError("Newton division left a remainder of degree >= deg b")
        return q.tolist(), r
    inv_lc = pow(bs[-1], p - 2, p)
    bb = np.array(bs[:-1], np.int64)
    q = [0] * max(k, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = int(rem[i])
        if c:
            qc = c * inv_lc % p
            q[i - db] = qc
            if db:
                rem[i - db : i] -= qc * bb
                rem[i - db : i] %= p
    return q, _trimmed(rem[:db])


def exact_div(f: Poly, g: Poly) -> Poly:
    """Quotient f/g, verifying that the remainder vanishes.

    A nonzero remainder on a path where theory promises divisibility is a
    falsification, so this raises InexactDivisionError rather than truncate.
    """
    if g.is_zero:
        raise UsageError("division by zero polynomial")
    q, r = divmod(f, g)
    if not r.is_zero:
        raise InexactDivisionError(f"{g} does not divide exactly (remainder {r})")
    return q


# ---------------------------------------------------------------------------
# Hasse derivatives


def hasse_derivative(f: Poly, n: int) -> Poly:
    """n-th divided-power derivative: x^m maps to C(m,n) x^(m-n).

    The binomial coefficient is reduced into the coefficient domain, so in
    characteristic p the familiar vanishing patterns appear automatically.
    """
    if n < 0:
        raise UsageError("derivative order must be >= 0")
    if n == 0:
        return f
    dom = f.dom
    out = []
    for m in range(n, len(f.cs)):
        out.append(dom.mul(f.cs[m], dom.from_int(comb(m, n))))
    return Poly(dom, out)


# ---------------------------------------------------------------------------
# gcd family


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd over a field; gcd(0,0) = 0.

    ZZ[x] is rejected (use ``gcd_primitive`` or map to QQ): there is no
    canonical monic normalization in a non-field.
    """
    dom = f.dom
    if dom is ZZ:
        raise UsageError("gcd over ZZ[x]: use gcd_primitive or map to QQ")
    if f.is_zero and g.is_zero:
        return f
    if dom == QQ:
        fz = _clear_denominators(f)
        gz = _clear_denominators(g)
        if fz.is_zero:
            return g.monic()
        if gz.is_zero:
            return f.monic()
        return gcd_primitive(fz, gz).map_to(QQ).monic()
    a, b = f, g
    while not b.is_zero:
        a, b = b, (a % b)
        if not b.is_zero:
            b = b.monic()
    return a.monic()


def _clear_denominators(f: Poly) -> Poly:
    if f.dom is ZZ:
        return f
    mult = lcm(*[c.denominator for c in f.cs]) if f.cs else 1
    return Poly(ZZ, [int(c * mult) for c in f.cs])


def _prem(a: Poly, b: Poly) -> Poly:
    """Pseudo-remainder over ZZ[x]: lc(b)^(da-db+1) a mod b."""
    da, db = a.degree, b.degree
    lcb = b.lc
    rem = list(a.cs)
    for i in range(da, db - 1, -1):
        top = rem[i]
        for j in range(len(rem)):
            rem[j] *= lcb
        if top:
            for j, bj in enumerate(b.cs):
                rem[i - db + j] -= top * bj
        rem = rem[:i]  # top coefficient is now eliminated
    return Poly(ZZ, rem)


def _prs(A: Poly, B: Poly) -> tuple[Poly, int]:
    """Subresultant PRS over ZZ[x] for deg A >= deg B, both primitive up to sign.

    Returns the last nonzero remainder, whose primitive part is gcd(A, B),
    and Res(A, B), which is 0 exactly when that remainder is not constant.
    The divisions by g·h^δ are exact, so coefficient growth stays polynomial.
    """
    s, g, h = 1, 1, 1
    while B.degree > 0:
        delta = A.degree - B.degree
        if A.degree % 2 == 1 and B.degree % 2 == 1:
            s = -s
        R = _prem(A, B)
        if R.is_zero:
            return B, 0
        divisor = g * h**delta
        A, B = B, Poly(ZZ, [c // divisor for c in R.cs])
        g = A.lc
        if delta:
            h = g**delta // h ** (delta - 1)
    d = A.degree  # 0 only when both inputs are constants
    return B, (s * (B.cs[0] ** d // h ** (d - 1)) if d else 1)


_HEU_TRIES = 6  # evaluation points GCDHEU tries before the PRS takes over


def _heu_gcd(A: Poly, B: Poly) -> Poly | None:
    """GCDHEU (Char, Geddes & Gonnet, J. Symb. Comp. 1989): the primitive
    gcd of nonzero A and B over ZZ[x], both primitive up to sign, or None
    after ``_HEU_TRIES`` evaluation points.

    At each point xi the integer gcd of A(xi) and B(xi) is read back as a
    polynomial through its symmetric xi-adic digits.  Every xi is at least
    2·min(|A|, |B|) + 2 (max norms), and then a candidate whose primitive
    part divides both A and B is their gcd, so the two exact divisions
    certify it.  The first xi adds 29 rather than 2, as sympy's heuristic
    gcd does.
    """
    xi = 2 * min(max(map(abs, A.cs)), max(map(abs, B.cs))) + 29
    for _ in range(_HEU_TRIES):
        gamma = gcd(A(xi), B(xi))
        digits = []
        while gamma:
            d = gamma % xi
            if d > xi // 2:
                d -= xi
            digits.append(d)
            gamma = (gamma - d) // xi
        G = Poly(ZZ, digits).primitive()
        if _divmod_zz(A, G)[1].is_zero and _divmod_zz(B, G)[1].is_zero:
            return G
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    return None


def gcd_primitive(f: Poly, g: Poly) -> Poly:
    """gcd over ZZ[x]: the content gcd times the primitive gcd, positive
    leading coefficient.  A zero operand yields the other operand, content
    kept, with its sign made positive; gcd(0, 0) = 0.

    The primitive gcd comes from ``_heu_gcd`` on the primitive parts, or,
    when that gives up, from the last remainder of the subresultant PRS.
    """
    if f.dom is not ZZ or g.dom is not ZZ:
        raise UsageError("gcd_primitive expects ZZ[x]")
    if f.is_zero or g.is_zero:
        h = g if f.is_zero else f
        return -h if h and h.lc < 0 else h
    cont = gcd(f.content(), g.content())
    a, b = f.primitive(), g.primitive()
    result = _heu_gcd(a, b)
    if result is None:
        if a.degree < b.degree:
            a, b = b, a
        result = _prs(a, b)[0].primitive()
    return Poly(ZZ, [c * cont for c in result.cs])


def strip_coprime(f: Poly, g: Poly) -> Poly:
    """Largest divisor of f coprime to g, by iterated exact division.

    Over ZZ[x] the gcds are primitive, so a primitive f stays primitive
    (Gauss's lemma); over a field the gcds are monic.
    """
    gcd_fn = gcd_primitive if f.dom is ZZ else poly_gcd
    while f.degree > 0:
        d = gcd_fn(f, g)
        if d.degree <= 0:
            break
        f = exact_div(f, d)
    return f


# ---------------------------------------------------------------------------
# squarefree part


def _inverse_frobenius_contract(f: Poly) -> Poly:
    """For f with vanishing derivative over GF(p^k): f = h(x^p); return h."""
    dom = f.dom
    p = dom.char
    out = []
    for i in range(0, len(f.cs), p):
        c = f.cs[i]
        out.append(dom.pow(c, p ** (dom.k - 1)) if dom.kind == "ext" else c)
    return Poly(dom, out)


def squarefree_part(f: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of f.

    Works over QQ and finite fields.  In characteristic p a vanishing
    derivative means f = h(x^p); the coefficients are pulled back through
    the Frobenius and the radical of h is taken instead.
    """
    if f.is_zero:
        raise UsageError("squarefree part of the zero polynomial")
    if f.dom is ZZ:
        return squarefree_part(f.map_to(QQ))
    f = f.monic()
    if f.degree <= 0:
        return Poly.one(f.dom)
    fp = f.deriv()
    if fp.is_zero:
        return squarefree_part(_inverse_frobenius_contract(f))
    g = poly_gcd(f, fp)
    if g.degree == 0:
        return f
    w = exact_div(f, g)
    h = g
    while True:
        c = poly_gcd(h, w)
        if c.degree == 0:
            break
        h = exact_div(h, c)
    # w holds each factor of multiplicity not divisible by char; h the rest
    if h.degree == 0:
        return w
    return (w * squarefree_part(h)).monic()


# ---------------------------------------------------------------------------
# resultants


def _res_std_zz(a: Poly, b: Poly) -> int:
    """Sylvester-determinant resultant Res(a, b) over ZZ: 0 when ``_heu_gcd``
    certifies a common factor, otherwise read off the subresultant PRS."""
    if a.is_zero or b.is_zero:
        return 0
    if a.degree == 0:
        return a.cs[0] ** b.degree
    if b.degree == 0:
        return b.cs[0] ** a.degree
    ca, cb = abs(a.content()), abs(b.content())  # primitive() would flip signs
    A = Poly(ZZ, [c // ca for c in a.cs])
    B = Poly(ZZ, [c // cb for c in b.cs])
    t = ca**b.degree * cb**a.degree
    if A.degree < B.degree:
        if A.degree % 2 == 1 and B.degree % 2 == 1:
            t = -t
        A, B = B, A
    G = _heu_gcd(A, B)
    if G is not None and G.degree > 0:
        return 0
    return t * _prs(A, B)[1]


def resultant(f: Poly, g: Poly):
    """Res(f, g) = lc(g)^(deg f) * prod f(beta_i) over the roots of g.

    Over ZZ a zero resultant costs one certified heuristic gcd (GCDHEU, as
    in ``gcd_primitive``) and a nonzero one is read off the subresultant
    PRS; over QQ the computation is routed through primitive integer parts;
    finite fields use a Euclidean recursion.  Res(f,g) = 0 exactly when f and g share a
    root (equivalently a nonconstant gcd).
    """
    if f.is_zero or g.is_zero:
        raise UsageError("resultant of the zero polynomial")
    dom = f.dom
    if dom is ZZ:
        return _res_std_zz(g, f)
    if dom == QQ:
        fz, gz = _clear_denominators(f), _clear_denominators(g)
        mf = Fraction(f.lc, fz.lc)  # f = mf * fz
        mg = Fraction(g.lc, gz.lc)
        base = _res_std_zz(gz, fz)
        return mf ** g.degree * mg ** f.degree * Fraction(base)
    # finite field: run the Euclidean recursion on (g, f)
    return _res_field_main(g, f)


def _res_field_main(a: Poly, b: Poly):
    """lc(a)^(deg b) prod b(alpha) over roots alpha of a, in a finite field."""
    dom = a.dom
    acc = dom.one()
    sign = 1
    while True:
        if a.degree == 0:
            acc = dom.mul(acc, dom.pow(a.cs[0], b.degree))
            break
        if b.is_zero:
            return dom.zero()
        if b.degree == 0:
            acc = dom.mul(acc, dom.pow(b.cs[0], a.degree))
            break
        r = b % a
        if r.is_zero:
            return dom.zero()
        acc = dom.mul(acc, dom.pow(a.lc, b.degree - r.degree))
        if a.degree % 2 == 1 and r.degree % 2 == 1:
            sign = -sign
        a, b = r, a
    if sign < 0:
        acc = dom.neg(acc)
    return acc


# ---------------------------------------------------------------------------
# roots over finite fields


def _powmod(base: Poly, e: int, mod: Poly) -> Poly:
    return _power(lambda a, b: a * b % mod, Poly.one(base.dom), base % mod, e)


def _candidate_order(spec):
    """Deterministic sweep of field elements for the splitting loops.

    Shifts lying in a proper subfield cannot separate Frobenius-conjugate
    roots (the splitting characters are constant on conjugacy classes), so
    the sweep starts at the elements whose top coordinate is nonzero and
    wraps around; every element is still visited exactly once.
    """
    q = spec.order
    start = spec.p ** (spec.k - 1) if spec.k > 1 else 0
    yield from range(start, q)
    yield from range(0, start)


def _split_once(f: Poly) -> Poly:
    """A proper monic factor of a squarefree monic f of degree >= 2 that
    splits over its field (equal-degree splitting of Cantor & Zassenhaus).

    Deterministic: candidates are tried in a fixed order, from the first
    one again on every call."""
    spec = f.dom
    q = spec.order
    xpoly = Poly.x(spec)
    if spec.char != 2:
        for idx in _candidate_order(spec):
            c = spec.element_from_index(idx)
            h = _powmod(xpoly + Poly.const(spec, c), (q - 1) // 2, f) - Poly.one(spec)
            g = poly_gcd(f, h)
            if 0 < g.degree < f.degree:
                return g
    else:
        kbits = q.bit_length() - 1  # q = 2^kbits
        for idx in _candidate_order(spec):
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
                return g
    raise AssertionError("splitting candidates exhausted on a split polynomial")


def _split_roots(f: Poly, q: int) -> list:
    """All roots (raw values) of a squarefree f that splits over its field,
    where x -> x^q fixes every coefficient of f.

    That map is a field automorphism, so it permutes the roots of f: they
    fall into orbits r, r^q, r^(q^2), ...  Only one root per orbit is split
    off.  The smallest pending factor is split until it is linear; the
    conjugates of its root are then divided out of whichever pending factor
    vanishes there, by ``exact_div``, and a conjugate that is a root of no
    pending factor raises.  The order of the output is fixed but not
    sorted; callers sort."""
    spec = f.dom
    pending = [f.monic()] if f.degree > 0 else []
    roots = []
    while pending:
        g = pending.pop(min(range(len(pending)), key=lambda i: pending[i].degree))
        while g.degree > 1:
            h = _split_once(g)
            rest = exact_div(g, h)
            g, other = (h, rest) if h.degree <= rest.degree else (rest, h)
            pending.append(other)
        r = spec.neg(g.cs[0])
        roots.append(r)
        s = spec.pow(r, q)
        while s != r:
            for i, h in enumerate(pending):
                if spec.is_zero(h(s)):
                    pending[i] = exact_div(h, Poly(spec, [spec.neg(s), spec.one()]))
                    break
            else:
                raise TheoremViolation(f"conjugate {spec.fmt(s)} is no root of the polynomial being split")
            roots.append(s)
            s = spec.pow(s, q)
        pending = [h for h in pending if h.degree > 0]
    return roots


@lru_cache(maxsize=FIELD_CACHE_SIZE)
def subfield_embedding(src: FieldSpec, dst: FieldSpec):
    """Field homomorphism GF(p^k) -> GF(p^K) with k | K, as a callable.

    The generator of the source is sent to the canonically smallest root of
    the source modulus inside the destination.  No compatibility across
    chains of such embeddings is promised; every computation here only ever
    needs a single step."""
    if src.kind == "rationals" or dst.kind == "rationals":
        raise UsageError("embeddings are between finite fields")
    if src.p != dst.p or dst.k % src.k != 0:
        raise UsageError(f"no embedding {src!r} -> {dst!r}")
    if src.kind == "prime":
        fn = dst.from_int
    elif src == dst:
        def fn(v):
            return v
    else:
        mod_img = Poly.of_ints(dst, list(src.modulus))
        roots = sorted(_split_roots(mod_img, dst.p), key=dst.element_index)
        beta = roots[0]
        powers = [dst.one()]
        for _ in range(src.k - 1):
            powers.append(dst.mul(powers[-1], beta))

        def fn(v, _powers=powers, _dst=dst):
            acc = _dst.zero()
            for c, bp in zip(v, _powers):
                if c:
                    acc = _dst.add(acc, _dst.mul(_dst.from_int(c), bp))
            return acc

    return fn


def roots_by_degree(f: Poly, max_deg: int) -> dict[int, list[FieldElement]]:
    """Roots of f grouped by the degree d of their field over the base.

    Distinct-degree splitting with gcd(f, x^(q^d) - x) isolates the product
    of the irreducible factors of each degree; its roots are then extracted
    inside GF(p^(d*k)) after embedding the coefficients.  Root lists are
    sorted canonically.
    """
    if f.is_zero:
        raise UsageError("roots of the zero polynomial")
    spec = f.dom
    if not isinstance(spec, FieldSpec) or not spec.is_finite:
        raise UsageError("roots_by_degree needs a finite field")
    f = squarefree_part(f)
    q = spec.order
    out: dict[int, list[FieldElement]] = {}
    w = Poly.x(spec) % f if f.degree >= 1 else Poly.x(spec)
    for d in range(1, max_deg + 1):
        if f.degree <= 0:
            break
        w = _powmod(w, q, f)
        g_d = poly_gcd(f, w - Poly.x(spec))
        if g_d.degree > 0:
            f = exact_div(f, g_d)
            w = w % f if f.degree >= 1 else Poly.zero(spec)
            big = make_extension(spec.p, d * spec.k)
            emb = subfield_embedding(spec, big)
            img = Poly(big, [emb(c) for c in g_d.cs])
            roots = sorted(_split_roots(img, q), key=big.element_index)
            out[d] = [FieldElement(big, r) for r in roots]
    return out


# ---------------------------------------------------------------------------
# rational roots (for certifying torsion loci in characteristic zero)


def _divisors_from_factors(factors: dict[int, int]) -> list[int]:
    divs = [1]
    for p, e in factors.items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def rational_roots(f: Poly) -> tuple[list[Fraction], bool]:
    """(roots in QQ, complete?) for f over QQ or ZZ.

    Candidates come from divisors of the constant and leading coefficients;
    if those are too large to factor by trial division the search is marked
    incomplete rather than silently wrong.
    """
    if f.dom is ZZ:
        f = f.map_to(QQ)
    if f.is_zero:
        raise UsageError("every rational is a root of 0")
    fz = _clear_denominators(f).primitive()
    roots = []
    # strip x^v first: 0 is a root iff the constant term vanishes
    v = 0
    while v < len(fz.cs) and fz.cs[v] == 0:
        v += 1
    if v:
        roots.append(Fraction(0))
        fz = Poly(ZZ, fz.cs[v:])
    if fz.degree == 0:
        return roots, True
    a0, an = abs(fz.cs[0]), abs(fz.lc)
    fac0, rem0 = factor_integer(a0, rho=False)
    facn, remn = factor_integer(an, rho=False)
    complete = rem0 == 1 and remn == 1
    if rem0 > 1:
        fac0[rem0] = 1
    if remn > 1:
        facn[remn] = 1
    for num in _divisors_from_factors(fac0):
        for den in _divisors_from_factors(facn):
            if gcd(num, den) != 1:
                continue
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if fz(cand) == 0 and cand not in roots:
                    roots.append(cand)
    return sorted(roots), complete


# ---------------------------------------------------------------------------
# parsing


def parse_poly(dom, text: str) -> Poly:
    """Parse either the human form ("10*x^12 - 20*x^7 + 10") or ascending
    coefficient CSV ("10,0,0,0,0,0,0,-20")."""
    text = text.strip()
    if not text:
        raise UsageError("empty polynomial text")
    if "x" not in text:
        if "," in text:
            return Poly(dom, [dom.parse(t) for t in text.split(",")])
        return Poly(dom, [dom.parse(text)])
    cleaned = text.replace("-", "+-").replace("**", "^")
    terms = [t.strip() for t in cleaned.split("+") if t.strip()]
    coeffs: dict[int, object] = {}
    for term in terms:
        neg = term.startswith("-")
        if neg:
            term = term[1:].strip()
        if "x" in term:
            head, _, tail = term.partition("x")
            head = head.strip().rstrip("*").strip()
            cval = dom.parse(head) if head else dom.one()
            tail = tail.strip()
            if tail.startswith("^"):
                e = int(tail[1:])
            elif not tail:
                e = 1
            else:
                raise UsageError(f"cannot parse term {term!r}")
        else:
            cval = dom.parse(term)
            e = 0
        if neg:
            cval = dom.neg(cval)
        coeffs[e] = dom.add(coeffs.get(e, dom.zero()), cval)
    top = max(coeffs) if coeffs else 0
    return Poly(dom, [coeffs.get(i, dom.zero()) for i in range(top + 1)])
