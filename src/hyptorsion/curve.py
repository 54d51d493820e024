"""Odd-degree hyperelliptic models y^2 + Q(x) y = P(x) and their plumbing.

A model fixes P (monic, degree 2g+1), Q (degree <= g) and a coefficient
field, and is validated for smoothness at construction:

* characteristic != 2: F = 4P + Q^2 must be squarefree (its degree is
  2g+1 automatically, the leading coefficient being 4);
* characteristic 2: no affine point may kill both partial derivatives,
  which after eliminating y reads gcd(Q, P'^2 + Q'^2 P) = 1.

Models are immutable.  Only prime-field models lift to the integers; the
division-polynomial pipeline always runs on such a lift and reduces last.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadModelError, UsageError
from .exactnum import QQ, FieldSpec, prime_field
from .poly import Poly, poly_gcd, squarefree_part

__all__ = [
    "HyperellipticModel",
    "MuNu",
    "new_model",
    "mu_nu",
    "two_torsion_x",
    "lift_to_integers",
    "reduce_mod_p",
    "model_from_text",
    "model_to_text",
]


@dataclass(frozen=True)
class HyperellipticModel:
    field: FieldSpec
    P: Poly
    Q: Poly
    g: int

    @property
    def F(self) -> Poly:
        """4P + Q^2, the discriminant-like companion of the model."""
        return self.P * 4 + self.Q * self.Q

    def is_integral(self) -> bool:
        return self.field == QQ and all(c.denominator == 1 for c in self.P.cs + self.Q.cs)

    def __repr__(self):
        return f"<y^2 + ({self.Q})y = {self.P} over {self.field!r}>"


@dataclass(frozen=True)
class MuNu:
    """The two index bounds attached to (g, N); nu + mu = N - g always."""

    N: int
    mu: int
    nu: int


def mu_nu(g: int, N: int) -> MuNu:
    if N < 2 * g + 1:
        raise UsageError(f"N={N} below 2g+1={2 * g + 1}")
    mu = (N - 2 * g - 1) // 2
    nu = N // 2 + 1
    assert nu + mu == N - g
    return MuNu(N, mu, nu)


def new_model(field: FieldSpec, P: Poly, Q: Poly) -> HyperellipticModel:
    """Validate and freeze a smooth odd-degree model over ``field``."""
    P = P.map_to(field) if P.dom is not field else P
    Q = Q.map_to(field) if Q.dom is not field else Q
    if P.degree < 3 or P.degree % 2 == 0:
        raise BadModelError(f"deg P = {P.degree}; need odd degree >= 3")
    if P.lc != field.one():
        raise BadModelError("P must be monic")
    g = (P.degree - 1) // 2
    if not Q.is_zero and Q.degree > g:
        raise BadModelError(f"deg Q = {Q.degree} exceeds g = {g}")
    if field.char == 2:
        Pd, Qd = P.deriv(), Q.deriv()
        sing = Pd * Pd + Qd * Qd * P
        if Q.is_zero or poly_gcd(Q, sing).degree != 0:
            raise BadModelError("singular in characteristic 2")
    else:
        F = P * 4 + Q * Q
        if poly_gcd(F, F.deriv()).degree != 0:
            raise BadModelError("F = 4P + Q^2 is not squarefree; model is singular")
    return HyperellipticModel(field, P, Q, g)


def two_torsion_x(model: HyperellipticModel) -> Poly:
    """Monic squarefree polynomial whose roots are the x-coordinates of the
    affine points fixed by the hyperelliptic involution (the order-2 points)."""
    F = model.F
    if F.is_constant():
        return Poly.one(model.field)
    return squarefree_part(F)


def lift_to_integers(model: HyperellipticModel) -> HyperellipticModel:
    """Lift a prime-field model to QQ by least nonnegative residues."""
    if model.field.kind != "prime":
        raise UsageError("only prime-field models lift to the integers")
    P = Poly.of_ints(QQ, list(model.P.cs))
    Q = Poly.of_ints(QQ, list(model.Q.cs))
    return new_model(QQ, P, Q)


def reduce_mod_p(model: HyperellipticModel, p: int) -> HyperellipticModel | None:
    """Reduce an integral model mod p; None means bad reduction.

    Raises on coefficients that are not p-integral.  "Good reduction" here
    means precisely that the reduced model is smooth; no minimal-model
    search is attempted.
    """
    if model.field != QQ:
        raise UsageError("reduce_mod_p expects a model over QQ")
    gf = prime_field(p)
    P = model.P.map_to(gf)  # raises UsageError if some denominator hits p
    Q = model.Q.map_to(gf)
    if P.degree != model.P.degree or P.lc != gf.one():
        return None  # leading coefficient degenerates: not our model shape
    try:
        return new_model(gf, P, Q)
    except BadModelError:
        return None


def integral_model(model: HyperellipticModel) -> HyperellipticModel:
    """The characteristic-zero integer model the divpoly pipeline runs on."""
    if model.field == QQ:
        if not model.is_integral():
            raise UsageError("model must have integer coefficients")
        return model
    if model.field.kind == "prime":
        return lift_to_integers(model)
    raise UsageError("extension-field models do not drive the division-polynomial pipeline")


def resolve_char(model: HyperellipticModel, char: int | None) -> int:
    """Target characteristic for a pipeline computation.

    None means "the model's own"; a prime-field model cannot be computed in
    any characteristic but its own (its lift to the integers is a choice of
    representative, not a curve the caller ever saw)."""
    own = model.field.char
    if char is None:
        return own
    if own != 0 and char != own:
        raise UsageError(f"model lives in characteristic {own}; cannot compute in {char}")
    return char


# ---------------------------------------------------------------------------
# curve file format: "char: <0|p>", "P: c0,c1,...", "Q: c0,..." (ascending CSV)


def model_from_text(text: str) -> HyperellipticModel:
    cline = pline = qline = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition(":")
        key = key.strip().lower()
        if key == "char":
            cline = value
        elif key == "p":
            pline = value.strip()
        elif key == "q":
            qline = value.strip()
        else:
            raise UsageError(f"unknown curve-file key {key!r}")
    if cline is None or pline is None or qline is None:
        raise UsageError("curve file needs char:, P: and Q: lines")
    try:
        char = int(cline)
        pcs = [int(t) for t in pline.split(",")]
        qcs = [int(t) for t in qline.split(",")] if qline else []
    except ValueError as e:
        raise UsageError(f"curve file: {e}") from e
    field = QQ if char == 0 else prime_field(char)
    return new_model(field, Poly.of_ints(field, pcs), Poly.of_ints(field, qcs))


def model_to_text(model: HyperellipticModel) -> str:
    char = model.field.char
    if model.field == QQ:
        pcs = ",".join(str(c.numerator) for c in model.P.cs)
        qcs = ",".join(str(c.numerator) for c in model.Q.cs)
    else:
        pcs = model.P.to_csv()
        qcs = model.Q.to_csv()
    return f"char: {char}\nP: {pcs}\nQ: {qcs if qcs else 0}\n"
