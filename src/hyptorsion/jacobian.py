"""Mumford-representation arithmetic on the degree-0 divisor class group.

This is the independent oracle for the torsion loci: a candidate root x0
is certified by lifting it to a curve point, multiplying the corresponding
divisor class by N and checking the result is the identity (and that the
point is not 2-torsion).  Nothing here touches the division polynomials.

The model y^2 + Q(x) y = P(x) is kept as is (no completing the square), so
characteristic 2 works natively; the hyperelliptic involution acts on a
reduced pair (u, v) by v -> (-v - Q) mod u.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .curve import HyperellipticModel, integral_model, reduce_mod_p, resolve_char
from .errors import TheoremViolation, UsageError
from .exactnum import FieldElement, FieldSpec, QQ, _power, factor_integer, frobenius, solve_quadratic
from .poly import Poly, exact_div, rational_roots, roots_by_degree, subfield_embedding

__all__ = [
    "JacobianContext",
    "MumfordDivisor",
    "context_over",
    "embed_point",
    "identity",
    "add",
    "neg",
    "scalar_mul",
    "has_exact_order",
    "verify_utilde",
    "VerifyReport",
    "RootCertificate",
]


@dataclass(frozen=True)
class JacobianContext:
    """A model with coefficients living in one concrete field."""

    field: FieldSpec
    P: Poly
    Q: Poly
    g: int


def context_over(model: HyperellipticModel, spec: FieldSpec | None = None) -> JacobianContext:
    """View a model inside ``spec`` (default: the model's own field).

    Prime-field models inject into extensions of the same characteristic;
    integral models reduce into finite fields or stay over the rationals.
    """
    spec = spec or model.field
    return JacobianContext(spec, model.P.map_to(spec), model.Q.map_to(spec), model.g)


class MumfordDivisor:
    """Reduced divisor class (u, v): u monic, deg v < deg u <= g,
    u | v^2 + Qv - P."""

    __slots__ = ("ctx", "u", "v")

    def __init__(self, ctx: JacobianContext, u: Poly, v: Poly, check: bool = True):
        if check:
            if u.is_zero or u.lc != ctx.field.one():
                raise UsageError("u must be monic")
            if u.degree > ctx.g or (not v.is_zero and v.degree >= u.degree):
                raise UsageError("pair is not reduced")
            if not ((v * v + ctx.Q * v - ctx.P) % u).is_zero:
                raise UsageError("u does not divide v^2 + Qv - P: not a divisor")
        self.ctx = ctx
        self.u = u
        self.v = v

    def __eq__(self, other):
        if not isinstance(other, MumfordDivisor):
            return NotImplemented
        return self.ctx == other.ctx and self.u == other.u and self.v == other.v

    def __hash__(self):
        return hash((self.ctx, self.u, self.v))

    @property
    def is_identity(self) -> bool:
        return self.u.degree == 0

    def __repr__(self):
        return f"<({self.u}, {self.v})>"


def identity(ctx: JacobianContext) -> MumfordDivisor:
    dom = ctx.field
    return MumfordDivisor(ctx, Poly.one(dom), Poly.zero(dom), check=False)


def embed_point(ctx: JacobianContext, x0: FieldElement, y0: FieldElement) -> MumfordDivisor:
    """The class of [(x0, y0)] - [infinity], after an on-curve check."""
    spec = ctx.field
    if x0.spec != spec or y0.spec != spec:
        raise UsageError("point coordinates must live in the context field")
    lhs = y0 * y0 + ctx.Q(x0) * y0
    if lhs != ctx.P(x0):
        raise UsageError(f"({x0}, {y0}) is not on the curve")
    u = Poly(spec, [spec.neg(x0.value), spec.one()])
    v = Poly(spec, [y0.value])
    return MumfordDivisor(ctx, u, v, check=False)


def _xgcd(a: Poly, b: Poly):
    """(d, s, t) with s a + t b = d, d monic, over a field."""
    dom = a.dom
    r0, r1 = a, b
    s0, s1 = Poly.one(dom), Poly.zero(dom)
    t0, t1 = Poly.zero(dom), Poly.one(dom)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero:
        return r0, s0, t0
    c = dom.inv(r0.lc)
    return r0.scale(c), s0.scale(c), t0.scale(c)


def neg(D: MumfordDivisor) -> MumfordDivisor:
    ctx = D.ctx
    v = (-D.v - ctx.Q) % D.u if D.u.degree > 0 else Poly.zero(ctx.field)
    return MumfordDivisor(ctx, D.u, v, check=False)


def add(D1: MumfordDivisor, D2: MumfordDivisor) -> MumfordDivisor:
    """Composition and reduction, valid in every characteristic."""
    if D1.ctx != D2.ctx:
        raise UsageError("divisors on different models")
    ctx = D1.ctx
    P, Q, g = ctx.P, ctx.Q, ctx.g
    u1, v1 = D1.u, D1.v
    u2, v2 = D2.u, D2.v
    d1, e1, e2 = _xgcd(u1, u2)
    w = v1 + v2 + Q
    d, c1, c2 = _xgcd(d1, w)
    u = exact_div(u1 * u2, d * d)
    s1u1v2 = e1 * u1 * v2 + e2 * u2 * v1
    v = exact_div(c1 * s1u1v2 + c2 * (v1 * v2 + P), d)
    v = v % u
    while u.degree > g:
        u_next = exact_div(P - v * Q - v * v, u)
        u = u_next.monic()
        v = (-Q - v) % u if u.degree > 0 else Poly.zero(ctx.field)
    u = u.monic()
    v = v % u if u.degree > 0 else Poly.zero(ctx.field)
    return MumfordDivisor(ctx, u, v, check=False)


def scalar_mul(D: MumfordDivisor, n: int) -> MumfordDivisor:
    if n < 0:
        return scalar_mul(neg(D), -n)
    return _power(add, identity(D.ctx), D, n)


def has_exact_order(D: MumfordDivisor, n: int) -> bool:
    """True when n D = 0 and (n/q) D != 0 for every prime q | n."""
    if not scalar_mul(D, n).is_identity:
        return False
    return all(not scalar_mul(D, n // q).is_identity for q in factor_integer(n)[0])


# ---------------------------------------------------------------------------
# certification of torsion loci


@dataclass(frozen=True)
class RootCertificate:
    x0_field_degree: int
    x0: str
    y0: str
    order_divides_N: bool
    in_two_torsion: bool
    certified: bool
    note: str = ""


@dataclass(frozen=True)
class VerifyReport:
    N: int
    char: int
    locus_degree: int
    certificates: tuple[RootCertificate, ...]
    uncertified_roots: int  # char 0: roots outside QQ are out of reach here


def _point_and_context(model, spec, x0: FieldElement):
    """(context, x0 in the context's field, y0) for a lift of x0 to the
    curve, or None over QQ when y is irrational.

    y0 is the smaller by ``element_index`` of the two roots y and -Q(x0) - y
    of y^2 + Q(x0) y = P(x0), over x0's field or, when they are not there,
    over its degree-2 extension.  verify_utilde applies the same rule to
    the conjugates of the two roots at each Frobenius conjugate of x0."""
    b, c = model.Q(x0), -model.P(x0)
    if not spec.is_finite:
        ys = solve_quadratic(FieldElement(spec, spec.one()), b, c)
        return (context_over(model, spec), x0, ys[0]) if ys else None
    ys = roots_by_degree(Poly(spec, [c.value, b.value, spec.one()]), 2)
    if not ys:
        raise TheoremViolation("quadratic for y insoluble in the degree-2 extension")
    y0 = ys[min(ys)][0]
    big = y0.spec  # spec itself when the root lies there
    x0b = FieldElement(big, subfield_embedding(spec, big)(x0.value))
    return context_over(model, big), x0b, y0


def verify_utilde(model: HyperellipticModel, N: int, char: int | None = None) -> VerifyReport:
    """Certify every reachable root of the level-N locus through Jacobian
    arithmetic: N D = 0 and 2 D != 0 for D = [(x0, y0)] - [infinity].

    Over GF(p) every root is certified, grouped by the degree of its field.
    The reduced curve is defined over GF(p), so the Frobenius s: v -> v^p
    is a GF(p)-automorphism of the Jacobian, and N s(D) = s(N D).  So each
    Frobenius orbit of roots is lifted and certified once, at its smallest
    root x0.  Its conjugate s^i(x0) takes the point (s^i(x0), y) with y the
    smaller of s^i(y0) and -Q(s^i(x0)) - s^i(y0), the lift the smallest root
    rule picks; the second value is the image under the hyperelliptic
    involution, whose divisor class is -s^i(D).  Either way the conjugate's
    class has the same order as D, so it takes D's findings, after its own
    on-curve check.  Over the rationals only rational roots can be lifted
    without number fields; the rest are counted, not certified.  Any root
    failing its check raises: that would falsify the locus computation.
    """
    from .torsion import utilde as compute_utilde

    char = resolve_char(model, char)
    model = integral_model(model)
    locus = compute_utilde(model, N, char)
    certs: list[RootCertificate] = []
    missed = 0
    if char == 0:
        roots, complete = rational_roots(locus.utilde)
        missed = locus.degree - len(roots)
        for r in roots:
            x0 = FieldElement(QQ, r)
            lift = _point_and_context(model, QQ, x0)
            if lift is None:
                certs.append(
                    RootCertificate(1, str(x0), "", False, False, False, "y is irrational")
                )
                continue
            certs.append(_certify(*lift, N, 1))
    else:
        reduced = reduce_mod_p(model, char)
        if reduced is None:
            raise UsageError(f"bad reduction at {char}")
        upoly = locus.utilde
        if upoly.degree > 0:
            for d, roots in sorted(roots_by_degree(upoly, upoly.degree).items()):
                done: dict = {}
                for x0 in roots:
                    if x0.value not in done:
                        done.update(_certify_orbit(reduced, N, d, x0))
                    certs.append(done[x0.value])
    report = VerifyReport(N, char, locus.degree, tuple(certs), missed)
    for cert in report.certificates:
        if cert.certified and (not cert.order_divides_N or cert.in_two_torsion):
            raise TheoremViolation(
                f"root {cert.x0} failed Jacobian certification at level {N}"
            )
    return report


def _certify_orbit(model, N, d, x0) -> dict:
    """{raw value of x: certificate} for x0 and each of its Frobenius
    conjugates, from one Jacobian certificate at x0 (see verify_utilde)."""
    p = model.field.p
    ctx, xe, ye = _point_and_context(model, x0.spec, x0)
    cert = _certify(ctx, xe, ye, N, d)
    out = {x0.value: cert}
    big = ctx.field
    x = frobenius(x0)
    while x != x0:
        xe, ye = FieldElement(big, big.pow(xe.value, p)), FieldElement(big, big.pow(ye.value, p))
        y = min(ye, -ctx.Q(xe) - ye, key=lambda v: big.element_index(v.value))
        embed_point(ctx, xe, y)  # the on-curve check
        out[x.value] = replace(cert, x0=str(xe), y0=str(y))
        x = frobenius(x)
    return out


def _certify(ctx, x0, y0, N, d) -> RootCertificate:
    D = embed_point(ctx, x0, y0)
    nd = scalar_mul(D, N)
    two = scalar_mul(D, 2)
    return RootCertificate(
        x0_field_degree=d,
        x0=str(x0),
        y0=str(y0),
        order_divides_N=nd.is_identity,
        in_two_torsion=two.is_identity,
        certified=True,
    )
