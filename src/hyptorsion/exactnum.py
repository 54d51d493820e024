"""Exact scalar arithmetic: rationals, prime fields, extension fields.

Scalar values are plain Python data (``Fraction`` for the rationals, ``int``
residues for prime fields, coefficient tuples for extension fields) and a
``FieldSpec`` carries the operations.  This keeps inner loops over raw values
cheap; ``FieldElement`` wraps a (spec, value) pair with operators for API use.

Extension fields are constructed deterministically: the modulus is the first
monic irreducible polynomial of degree k over GF(p), scanning coefficient
tuples (c0, ..., c_{k-1}) in ascending base-p order with c0 varying fastest.
Irreducibility is Rabin's test, run with the GF(p)[x] arithmetic of ``poly``.
There is no lattice of compatible embeddings; each field stands alone, and
the one embedding helper needed (subfield into an extension of its degree
times d) lives in ``poly``.

This module holds scalar arithmetic only.  Quadratics over a finite field
are solved by ``poly``'s root finder (Cantor-Zassenhaus); over the rationals
by the discriminant.

GF(p^k) arithmetic takes one of two paths, chosen by the field's order q.
Up to ``ZECH_MAX_ORDER`` elements, it is table-driven: each nonzero element
is g^i for a fixed generator g, and Zech logarithms log(1 + g^i) (Huber,
IEEE Trans. Inf. Theory 36, 1990) turn addition into lookups too.  Above
that, a product is a schoolbook digit multiply reduced by the modulus, and
an inverse is the extended Euclid on plain coefficient lists, cancelling one
leading term per step (``Poly`` objects measured slower, and a^(q-2) would
cost about 2 log2(q) products).  Values are canonical tuples on both paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, prod

from .errors import UsageError

__all__ = [
    "FieldSpec",
    "FieldElement",
    "QQ",
    "prime_field",
    "make_extension",
    "solve_quadratic",
    "frobenius",
    "is_prime",
    "factor_integer",
]


# ---------------------------------------------------------------------------
# primality (deterministic Miller-Rabin, valid for all 64-bit inputs)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# integer factoring: trial division by block gcds plus a Brent-Pollard rho stage


def _rho_brent(n: int) -> int:
    """A nontrivial factor of composite odd n, deterministic parameter sweep."""
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        y, r, q = 2, 1, 1
        m = 128
        g_, x, ys = 1, 0, 0
        while g_ == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g_ == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g_ = gcd(q, n)
                k += m
            r *= 2
        if g_ == n:
            g_ = 1
            while g_ == 1:
                ys = (ys * ys + c) % n
                g_ = gcd(abs(x - ys), n)
        if g_ != n:
            return g_
    raise ArithmeticError(f"rho failed to split {n}")


_RHO_LIMIT = 1 << 84  # beyond this, rho may never finish; report the cofactor
_TRIAL_BLOCK = 1 << 14  # trial division takes one gcd per block of this many integers


@lru_cache(maxsize=64)  # room for the ~62 blocks below the default trial bound
def _block_product(k: int) -> int:
    """The product of the primes in [k·W, (k+1)·W), W = ``_TRIAL_BLOCK``.

    The block is sieved by every q up to the square root of its end; a
    composite q only repeats the work of its prime factors.
    """
    lo, hi = max(k * _TRIAL_BLOCK, 2), (k + 1) * _TRIAL_BLOCK
    sieve = bytearray([1]) * (hi - lo)
    for q in range(2, isqrt(hi - 1) + 1):
        start = max(q * q, -(-lo // q) * q)
        sieve[start - lo :: q] = bytes(len(range(start, hi, q)))
    return prod(compress(range(lo, hi), sieve))


def factor_integer(n: int, trial_bound: int = 10**6, rho: bool = True):
    """(prime factor multiplicities, unfactored cofactor >= 1).

    Trial division up to ``trial_bound``, one block of consecutive integers
    at a time: a block whose prime product is coprime to n is skipped, and
    otherwise its primes dividing that gcd are divided out in ascending
    order.  Remaining composites below a size cap are split by Pollard rho.
    Anything still composite and unsplit is returned as the cofactor rather
    than silently dropped.
    """
    if n < 0:
        n = -n
    factors: dict[int, int] = {}
    if n in (0, 1):
        return factors, n if n else 0
    k, lo = 0, 2
    while lo <= trial_bound and lo * lo <= n:
        g_ = gcd(n, _block_product(k))
        d = lo
        # the block's primes below d are out of g_, so a d dividing it is prime
        while g_ > 1 and d <= trial_bound:
            if g_ % d == 0:
                g_ //= d
                while n % d == 0:
                    factors[d] = factors.get(d, 0) + 1
                    n //= d
            d += 1
        k += 1
        lo = k * _TRIAL_BLOCK
    # every prime below t is divided out, so t² > n leaves n prime
    t = min(lo, trial_bound + 1)
    if n > 1 and t * t > n:
        factors[n] = factors.get(n, 0) + 1
        n = 1
    stack = [n] if n > 1 else []
    cofactor = 1
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        if not rho or m > _RHO_LIMIT:
            cofactor *= m
            continue
        try:
            f = _rho_brent(m)
        except ArithmeticError:
            cofactor *= m
            continue
        stack.extend((f, m // f))
    return factors, cofactor


# ---------------------------------------------------------------------------
# the irreducibility test


def _is_irreducible(m: list[int], p: int) -> bool:
    """Rabin test: monic m of degree k >= 2 is irreducible over GF(p)."""
    # poly imports this module when it loads, so the import waits for the call
    from .poly import Poly, _powmod, poly_gcd

    f = Poly(prime_field(p), m)
    k = f.degree
    x = Poly.x(f.dom)
    if _powmod(x, p**k, f) != x:
        return False
    for ell in factor_integer(k)[0]:
        if poly_gcd(_powmod(x, p ** (k // ell), f) - x, f).degree != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# field specs


def _power(mul, one, a, e: int):
    """a^e for e >= 0 by square and multiply with ``mul``, the one such loop
    in the package: field elements, polynomials (mod a modulus or not) and
    divisor classes all go through it."""
    result = one
    while e:
        if e & 1:
            result = mul(result, a)
        e >>= 1
        if e:  # the square after the top bit would go unused
            a = mul(a, a)
    return result


ZECH_MAX_ORDER = 1 << 12  # GF(q) with q up to this many elements computes through Zech-log tables


class _Zech:
    """Zech-log tables of GF(q) for a generator g, n = q - 1.

    ``exp[i]`` is g^i for 0 <= i < 2n (twice round, so a sum of two logs
    indexes it unreduced), ``log`` maps each nonzero tuple to its exponent
    in [0, n), ``zech[i]`` is log(1 + g^i) or None where 1 + g^i = 0, and
    ``neg1`` is log(-1).
    """

    __slots__ = ("n", "exp", "log", "zech", "neg1")

    def __init__(self, spec: FieldSpec):
        p, q = spec.p, spec.order
        n = q - 1
        one = spec.one()
        ells = factor_integer(n)[0]
        # the first element in canonical order whose order is n (GF(q)* is cyclic)
        for i in range(2, q):
            g = spec.element_from_index(i)
            if all(_power(spec._mul_digits, one, g, n // ell) != one for ell in ells):
                break
        exp = [one]
        for _ in range(n - 1):
            exp.append(spec._mul_digits(exp[-1], g))
        self.n = n
        self.log = {v: i for i, v in enumerate(exp)}
        if len(self.log) != n:
            raise ValueError(f"{spec!r} has no element of order {n}: its modulus is reducible")
        self.exp = exp + exp
        self.zech = []
        for v in exp:
            w = ((v[0] + 1) % p,) + v[1:]
            self.zech.append(self.log[w] if any(w) else None)
        self.neg1 = 0 if p == 2 else n // 2


@dataclass(frozen=True)
class FieldSpec:
    """One of the three scalar domains: rationals, GF(p), GF(p^k).

    ``modulus`` is the full ascending coefficient tuple of the monic defining
    polynomial (length k+1, last entry 1) when kind == "ext", else None.

    Values of GF(p^k) are canonical tuples of k residues.  When q = p^k is at
    most ``ZECH_MAX_ORDER``, the first arithmetic call builds Zech-log tables
    (``_Zech``) and caches them on the spec, outside the dataclass fields, so
    they take no part in equality, hashing or the repr, and the field cache
    that bounds the specs bounds them too.  Larger fields multiply digit by
    digit and invert by the extended Euclid.
    """

    kind: str  # "rationals" | "prime" | "ext"
    p: int | None = None
    k: int = 1
    modulus: tuple[int, ...] | None = None

    _zech = None  # the _Zech tables once built, False for a field above ZECH_MAX_ORDER

    # -- basic structure ----------------------------------------------------

    @property
    def char(self) -> int:
        return 0 if self.kind == "rationals" else self.p

    @property
    def order(self) -> int | None:
        if self.kind == "rationals":
            return None
        return self.p**self.k

    @property
    def is_finite(self) -> bool:
        return self.kind != "rationals"

    def __repr__(self):
        if self.kind == "rationals":
            return "QQ"
        if self.kind == "prime":
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k})"

    # -- constants ----------------------------------------------------------

    def zero(self):
        if self.kind == "rationals":
            return Fraction(0)
        if self.kind == "prime":
            return 0
        return (0,) * self.k

    def one(self):
        if self.kind == "rationals":
            return Fraction(1)
        if self.kind == "prime":
            return 1
        return (1,) + (0,) * (self.k - 1)

    def from_int(self, n: int):
        if self.kind == "rationals":
            return Fraction(n)
        if self.kind == "prime":
            return n % self.p
        return (n % self.p,) + (0,) * (self.k - 1)

    def is_zero(self, v) -> bool:
        if self.kind == "ext":
            return not any(v)
        return v == 0

    # -- arithmetic on raw values -------------------------------------------

    def _tables(self):
        """The Zech-log tables of an "ext" field, built on first use; False
        when q exceeds ``ZECH_MAX_ORDER``."""
        z = self._zech
        if z is None:
            z = _Zech(self) if self.order <= ZECH_MAX_ORDER else False
            object.__setattr__(self, "_zech", z)
        return z

    def add(self, a, b):
        if self.kind == "ext":
            z = self._zech or self._tables()
            if not z:
                p = self.p
                return tuple((x + y) % p for x, y in zip(a, b))
            if not any(a):
                return b
            if not any(b):
                return a
            la = z.log[a]
            s = z.zech[(z.log[b] - la) % z.n]
            return self.zero() if s is None else z.exp[la + s]
        if self.kind == "prime":
            return (a + b) % self.p
        return a + b

    def sub(self, a, b):
        if self.kind == "ext":
            z = self._zech or self._tables()
            if not z:
                p = self.p
                return tuple((x - y) % p for x, y in zip(a, b))
            if not any(b):
                return a
            lb = z.log[b] + z.neg1  # log(-b), below 2n
            if not any(a):
                return z.exp[lb]
            la = z.log[a]
            s = z.zech[(lb - la) % z.n]
            return self.zero() if s is None else z.exp[la + s]
        if self.kind == "prime":
            return (a - b) % self.p
        return a - b

    def neg(self, a):
        if self.kind == "ext":
            p = self.p
            return tuple(-x % p for x in a)
        if self.kind == "prime":
            return -a % self.p
        return -a

    def _mul_digits(self, a, b):
        """Schoolbook product of two GF(p^k) tuples, reduced by the modulus."""
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        m = self.modulus
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i] % p
            if c:
                for j in range(k):
                    prod[i - k + j] -= c * m[j]
        return tuple(c % p for c in prod[:k])

    def mul(self, a, b):
        if self.kind == "prime":
            return a * b % self.p
        if self.kind == "rationals":
            return a * b
        z = self._zech or self._tables()
        if not z:
            return self._mul_digits(a, b)
        if not any(a) or not any(b):
            return self.zero()
        return z.exp[z.log[a] + z.log[b]]

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.kind == "rationals":
            return 1 / a
        if self.kind == "prime":
            return pow(a, self.p - 2, self.p)
        z = self._zech or self._tables()
        if z:
            return z.exp[z.n - z.log[a]]
        # extended Euclid on (modulus, a), one leading term cancelled per
        # step, keeping s_i with s_i a = r_i mod the modulus; every s_i has
        # degree below k while deg r_i >= 1, so x^d s1 fits in k slots
        p, k = self.p, self.k
        r0, r1 = list(self.modulus), list(a)
        while not r1[-1]:
            r1.pop()
        s0, s1 = [0] * k, [1] + [0] * (k - 1)
        inv1 = pow(r1[-1], p - 2, p)
        while len(r1) > 1:
            c = r0[-1] * inv1 % p
            d = len(r0) - len(r1)
            for i, x in enumerate(r1):
                r0[d + i] = (r0[d + i] - c * x) % p
            for i in range(k - d):
                s0[d + i] = (s0[d + i] - c * s1[i]) % p
            while not r0[-1]:  # r0 never vanishes: the modulus is irreducible
                r0.pop()
            if len(r0) < len(r1):
                r0, r1, s0, s1 = r1, r0, s1, s0
                inv1 = pow(r1[-1], p - 2, p)
        return tuple(x * inv1 % p for x in s1)

    def div(self, a, b):
        if self.kind == "rationals":
            return a / b
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        if self.kind == "ext" and any(a):
            z = self._zech or self._tables()
            if z:
                return z.exp[z.log[a] * e % z.n]
        if e < 0:
            return self.pow(self.inv(a), -e)
        return _power(self.mul, self.one(), a, e)

    # -- enumeration, ordering, text form ------------------------------------

    def element_index(self, v) -> int:
        """Canonical position: residue for GF(p), sum c_i p^i for GF(p^k)."""
        if self.kind == "prime":
            return v
        if self.kind == "ext":
            n = 0
            for c in reversed(v):
                n = n * self.p + c
            return n
        raise UsageError("rationals are not enumerable")

    def element_from_index(self, n: int):
        if self.kind == "prime":
            return n % self.p
        if self.kind == "ext":
            out = []
            for _ in range(self.k):
                out.append(n % self.p)
                n //= self.p
            return tuple(out)
        raise UsageError("rationals are not enumerable")

    def elements(self):
        for n in range(self.order):
            yield self.element_from_index(n)

    def fmt(self, v) -> str:
        if self.kind == "rationals":
            return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)
        if self.kind == "prime":
            return f"{v} mod {self.p}"
        return ",".join(str(c) for c in v)

    def parse(self, text: str):
        text = text.strip()
        try:
            if self.kind == "rationals":
                if "/" in text:
                    n, d = text.split("/")
                    return Fraction(int(n), int(d))
                return Fraction(int(text))
            if self.kind == "prime":
                if "mod" in text:
                    r, m = text.split("mod")
                    if int(m) != self.p:
                        raise UsageError(f"element is mod {m.strip()}, field is mod {self.p}")
                    return int(r) % self.p
                return int(text) % self.p
            parts = [int(t) % self.p for t in text.split(",")]
        except UsageError:
            raise
        except (ValueError, ZeroDivisionError) as e:
            raise UsageError(f"cannot parse field element {text!r}: {e}") from e
        if len(parts) > self.k:
            raise UsageError(f"too many coefficients for GF({self.p}^{self.k})")
        parts += [0] * (self.k - len(parts))
        return tuple(parts)


QQ = FieldSpec("rationals")

FIELD_CACHE_SIZE = 256  # fields (and, in poly, embeddings) kept; least recently used evicted


@lru_cache(maxsize=FIELD_CACHE_SIZE)
def prime_field(p: int) -> FieldSpec:
    if not is_prime(p):
        raise UsageError(f"{p} is not prime")
    return FieldSpec("prime", p=p)


@lru_cache(maxsize=FIELD_CACHE_SIZE)
def make_extension(p: int, k: int) -> FieldSpec:
    """GF(p^k) with the first monic irreducible modulus in canonical order.

    Candidate moduli x^k + c_{k-1}x^{k-1} + ... + c0 are scanned by ascending
    value of sum c_i p^i, so the result is identical across runs.  k == 1
    returns the prime field itself.
    """
    if not is_prime(p):
        raise UsageError(f"{p} is not prime")
    if k < 1:
        raise UsageError("extension degree must be >= 1")
    if k == 1:
        return prime_field(p)
    for n in range(p**k):
        tail = []
        t = n
        for _ in range(k):
            tail.append(t % p)
            t //= p
        m = tail + [1]
        if _is_irreducible(m, p):
            return FieldSpec("ext", p=p, k=k, modulus=tuple(m))
    raise AssertionError("unreachable: irreducible polynomials exist in every degree")


# ---------------------------------------------------------------------------
# elements


class FieldElement:
    """A scalar tagged with its field; operators delegate to the spec."""

    __slots__ = ("spec", "value")

    def __init__(self, spec: FieldSpec, value):
        if spec.kind == "rationals" and not isinstance(value, Fraction):
            value = Fraction(value)
        elif spec.kind == "prime" and isinstance(value, int):
            value = value % spec.p
        elif spec.kind == "ext":
            if not isinstance(value, tuple) or len(value) != spec.k or not all(isinstance(c, int) for c in value):
                raise UsageError(f"an element of {spec!r} is a tuple of {spec.k} integers, not {value!r}")
            value = tuple(c % spec.p for c in value)
        self.spec = spec
        self.value = value

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise UsageError("elements of different fields")
            return other.value
        if isinstance(other, int):
            return self.spec.from_int(other)
        raise TypeError(f"cannot combine FieldElement with {type(other)!r}")

    def __add__(self, other):
        return FieldElement(self.spec, self.spec.add(self.value, self._coerce(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return FieldElement(self.spec, self.spec.sub(self.value, self._coerce(other)))

    def __rsub__(self, other):
        return FieldElement(self.spec, self.spec.sub(self._coerce(other), self.value))

    def __mul__(self, other):
        return FieldElement(self.spec, self.spec.mul(self.value, self._coerce(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return FieldElement(self.spec, self.spec.div(self.value, self._coerce(other)))

    def __rtruediv__(self, other):
        return FieldElement(self.spec, self.spec.div(self._coerce(other), self.value))

    def __pow__(self, e: int):
        return FieldElement(self.spec, self.spec.pow(self.value, e))

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg(self.value))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.spec == other.spec and self.value == other.value
        if isinstance(other, int):
            return self.value == self.spec.from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.spec, self.value))

    def __bool__(self):
        return not self.spec.is_zero(self.value)

    def __repr__(self):
        return f"<{self.spec.fmt(self.value)} in {self.spec!r}>"

    def __str__(self):
        return self.spec.fmt(self.value)


def frobenius(e: FieldElement) -> FieldElement:
    """e -> e^p in a finite field; rejects rationals."""
    if not e.spec.is_finite:
        raise UsageError("Frobenius needs a finite field")
    return FieldElement(e.spec, e.spec.pow(e.value, e.spec.p))


# ---------------------------------------------------------------------------
# quadratics


def _sqrt_fraction(v: Fraction) -> Fraction | None:
    if v < 0:
        return None
    n, d = v.numerator, v.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def solve_quadratic(a: FieldElement, b: FieldElement, c: FieldElement) -> list[FieldElement]:
    """All roots of a t^2 + b t + c in the coefficients' field, sorted.

    Finite fields use the root finder of ``poly`` on the degree-2
    polynomial; the rationals go through the discriminant.  The returned
    list has 0, 1 or 2 distinct roots (a double root appears once).
    """
    spec = a.spec
    if spec != b.spec or spec != c.spec:
        raise UsageError("coefficients must share one field")
    if not a:
        raise UsageError("degenerate quadratic: a = 0")
    if spec.is_finite:
        # poly imports this module when it loads, so the import waits for the call
        from .poly import Poly, roots_by_degree

        return roots_by_degree(Poly(spec, [c.value, b.value, a.value]), 1).get(1, [])
    av, bv, cv = a.value, b.value, c.value
    s = _sqrt_fraction(bv * bv - 4 * av * cv)
    if s is None:
        return []
    return [FieldElement(QQ, r) for r in sorted({(s - bv) / (2 * av), (-s - bv) / (2 * av)})]
