"""Exact determinants and ranks for polynomial and scalar matrices.

Bareiss fraction-free elimination is the workhorse: intermediate entries are
minors of the input, so every division is exact (checked, not assumed).
Berkowitz's division-free algorithm covers matrices over quotient rings
k[x]/(h), where division is unavailable; it is only used to test whether a
candidate divisor h divides a determinant without expanding it.
"""

from __future__ import annotations

from .errors import UsageError
from .exactnum import FieldSpec
from .poly import Poly, exact_div

__all__ = ["bareiss_det", "berkowitz_det_mod", "scalar_rank"]


def bareiss_det(rows: list[list[Poly]]) -> Poly:
    """Determinant of a square matrix of polynomials over ZZ or a field."""
    n = len(rows)
    if n == 0:
        raise UsageError("empty matrix")
    dom = rows[0][0].dom
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    m = [list(r) for r in rows]
    sign = 1
    prev = None
    for k in range(n - 1):
        if m[k][k].is_zero:
            for r in range(k + 1, n):
                if not m[r][k].is_zero:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return Poly.zero(dom)
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            for j in range(k + 1, n):
                num = m[i][j] * pivot - mik * m[k][j]
                m[i][j] = exact_div(num, prev) if prev is not None else num
            m[i][k] = Poly.zero(dom)
        prev = pivot
    det = m[n - 1][n - 1]
    return det if sign > 0 else -det


def berkowitz_det_mod(rows: list[list[Poly]], h: Poly) -> Poly:
    """det(rows) reduced mod h, computed division-free inside k[x]/(h).

    Because reduction mod h is a ring homomorphism this equals the full
    determinant reduced mod h; the point is never to expand the full
    determinant when only divisibility by h is asked.
    """
    one = Poly.one(h.dom)
    n = len(rows)
    a = [[e % h for e in row] for row in rows]
    vec = [one]
    for i in range(n):
        c = [one, -a[i][i]]
        if i > 0:
            row_i = a[i][:i]
            w = [a[r][i] for r in range(i)]
            for _ in range(i):
                c.append(-_dot_mod(row_i, w, h))
                w = [_dot_mod(a[r][:i], w, h) for r in range(i)]
        new = []
        for r in range(i + 2):
            acc = Poly.zero(h.dom)
            for k, vk in enumerate(vec):
                if 0 <= r - k < len(c):
                    acc = acc + (c[r - k] * vk) % h
            new.append(acc)
        vec = new
    det = vec[n]
    if n % 2 == 1:
        det = -det
    return det % h


def _dot_mod(xs: list[Poly], ys: list[Poly], h: Poly) -> Poly:
    acc = Poly.zero(h.dom)
    for x, y in zip(xs, ys):
        acc = acc + (x * y) % h
    return acc


def scalar_rank(rows: list[list], spec: FieldSpec) -> int:
    """Rank of a matrix of raw field values via Gaussian elimination."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, nrows):
            if not spec.is_zero(m[r][col]):
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        inv = spec.inv(m[rank][col])
        m[rank] = [spec.mul(v, inv) for v in m[rank]]
        for r in range(nrows):
            if r != rank and not spec.is_zero(m[r][col]):
                factor = m[r][col]
                m[r] = [spec.sub(v, spec.mul(factor, w)) for v, w in zip(m[r], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank
