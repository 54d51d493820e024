"""Workload definitions, the seeded input generator and the correctness gate.

Everything here talks to the package through its public names only
(``hyptorsion.utilde``, ``hyptorsion.new_model``, ...), looked up on the
package object at call time so that the traced run sees its wrappers.

A workload is a list of jobs.  A job is one public call; the worker runs the
jobs one after another (a closed loop with a single caller) and checks every
result afterwards, outside the timed region.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

# The curve files of demos/curves, kept here so the benchmark owns its inputs.
CURVES = {
    # genus-3 quotient modular curve, good reduction away from 2, 3, 17
    "x051": (
        "char: 0\n"
        "P: 72074394832896,4946281998336,136819425024,2122416000,21016080,136272,536,1\n"
        "Q: 0\n"
    ),
    "ex1": "char: 0\nP: 0,0,0,0,0,1\nQ: 1\n",  # y^2 + y = x^5
    "ex2": "char: 0\nP: 0,-1,0,0,0,1\nQ: 0\n",  # y^2 = x^5 - x
    "ex5": "char: 0\nP: 0,0,0,0,0,0,0,1\nQ: 1\n",  # y^2 + y = x^7
}

WORKLOADS = ("l32-modp", "sweep-modp", "char0-search", "certify-jacobian")

# The level-32 locus is taken mod 5 whatever the seed: mod 11, 13 and 19 it
# costs from 0.85x to 1.2x as much, which would make wall_s depend on the seed.
# (7 is exceptional, 2, 3 and 17 are bad primes.)
L32_PRIME = 5
X051_Y0 = 8489664  # (0, +-X051_Y0) lie on x051 and have exact order 32
X051_WITNESSES = (5, 7, 11, 13, 19, 23)
RANDOM_WITNESSES = (5, 7, 11, 13, 17, 19, 23)
# An exceptional locus u mod p of a random search is certified root by root
# when p^deg(u), the size of the largest field its roots can need, is below
# this; beyond it Jacobian arithmetic can take minutes.
VERIFY_FIELD_CAP = 1 << 12

# (curve, N, p) -> (locus degree, digest of its coefficients), recorded at the
# commit that introduced the benchmark; goldens.py recomputes them and
# certifies each locus through Jacobian arithmetic.
GOLDEN_LOCI = {
    ("ex5", 12, 3): (0, "6b86b273ff34fce1"),
    ("ex5", 13, 3): (14, "1009ee0eb6263ddd"),
    ("ex5", 14, 3): (8, "d438094fdeb6ddec"),
    ("ex5", 15, 3): (0, "6b86b273ff34fce1"),
    ("ex5", 16, 3): (0, "6b86b273ff34fce1"),
    ("ex5", 17, 3): (0, "6b86b273ff34fce1"),
    ("ex5", 18, 3): (0, "6b86b273ff34fce1"),
    ("ex5", 19, 3): (0, "6b86b273ff34fce1"),
    ("ex5", 20, 3): (0, "6b86b273ff34fce1"),
    ("ex5", 21, 3): (1, "83b97b859aa5f81b"),
    ("ex5", 12, 13): (42, "a5c9e8e2cc763576"),
    ("ex5", 13, 13): (0, "6b86b273ff34fce1"),
    ("ex5", 14, 13): (120, "7c9b5c2ab8e1d3b1"),
    ("ex5", 15, 13): (0, "6b86b273ff34fce1"),
    ("ex5", 16, 13): (0, "6b86b273ff34fce1"),
    ("ex5", 17, 13): (0, "6b86b273ff34fce1"),
    ("ex5", 18, 13): (0, "6b86b273ff34fce1"),
    ("ex5", 19, 13): (0, "6b86b273ff34fce1"),
    ("ex5", 20, 13): (0, "6b86b273ff34fce1"),
    ("ex5", 21, 13): (8, "220cd40f7ec38ce8"),
    ("ex1", 14, 2): (0, "6b86b273ff34fce1"),
    ("ex1", 15, 2): (96, "622a18131f259eff"),
    ("ex1", 16, 2): (0, "6b86b273ff34fce1"),
    ("ex1", 17, 2): (160, "47e3ddbe6781c950"),
    ("ex1", 18, 2): (0, "6b86b273ff34fce1"),
    ("ex1", 19, 2): (0, "6b86b273ff34fce1"),
    ("ex1", 20, 2): (16, "11cfbaa7d3c1f939"),
    ("ex1", 21, 2): (0, "6b86b273ff34fce1"),
    ("ex1", 14, 11): (0, "6b86b273ff34fce1"),
    ("ex1", 15, 11): (6, "8d104e31dfe04821"),
    ("ex1", 16, 11): (0, "6b86b273ff34fce1"),
    ("ex1", 17, 11): (0, "6b86b273ff34fce1"),
    ("ex1", 18, 11): (0, "6b86b273ff34fce1"),
    ("ex1", 19, 11): (0, "6b86b273ff34fce1"),
    ("ex1", 20, 11): (6, "8d104e31dfe04821"),
    ("ex1", 21, 11): (0, "6b86b273ff34fce1"),
}

# (curve, N) -> (exceptional primes with their loci as coefficient lists,
# candidate primes, unfactored cofactor)
GOLDEN_SEARCH = {
    ("ex5", 11): (((2, (1, 0, 0, 0, 0, 0, 0, 1)),), (2, 5, 7, 11), 1),
    ("ex1", 7): (((911, (478, 0, 0, 0, 0, 1)),), (5, 7, 911), 1),
}

# (curve, N, p) -> number of Jacobian certificates
GOLDEN_CERTIFICATES = {
    ("ex1", 15, 2): 96,
    ("ex1", 7, 911): 5,
    ("ex1", 5, 2): 16,
    ("ex1", 20, 11): 6,
    ("ex5", 7, 13): 8,
    ("ex5", 11, 2): 7,
    ("ex5", 14, 3): 8,
    ("ex5", 12, 13): 42,
    ("ex2", 6, 3): 4,
    ("ex2", 12, 3): 4,
}


@dataclass
class Job:
    label: str
    fn: str  # name of a public hyptorsion function
    args: tuple
    check: object  # check(H, job, result) -> failure reason or None
    golden: object = None


def locus_digest(f) -> str:
    """Short digest of a locus polynomial's coefficient list."""
    text = ",".join(str(f.coeff(i)) for i in range(f.degree + 1))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def random_model(H, rng: random.Random, g: int, bound: int):
    """A smooth integral model y^2 + Q y = P of genus g with small
    coefficients; singular draws are rejected and redrawn."""
    while True:
        P = H.Poly.of_ints(H.QQ, [rng.randint(-bound, bound) for _ in range(2 * g + 1)] + [1])
        Q = H.Poly.of_ints(H.QQ, [rng.randint(0, 1) for _ in range(g + 1)])
        try:
            return H.new_model(H.QQ, P, Q)
        except H.BadModelError:
            continue


def build(H, workload: str, seed: int):
    """(jobs, description of the generated inputs) for one workload."""
    curves = {name: H.model_from_text(text) for name, text in CURVES.items()}
    rng = random.Random(seed)
    if workload == "l32-modp":
        job = Job(f"utilde(x051, 32, {L32_PRIME})", "utilde", (curves["x051"], 32, L32_PRIME), check_l32)
        return [job], []
    if workload == "sweep-modp":
        jobs = []
        m = curves["x051"]
        for N in range(7, 21):
            jobs.append(Job(f"scan(x051, {N})", "reduction_scan", (m, [N], X051_WITNESSES, False),
                            check_scan, golden="EMPTY"))
        for name, ps, levels in (("ex5", (3, 13), range(12, 22)), ("ex1", (2, 11), range(14, 22))):
            for p in ps:
                for N in levels:
                    jobs.append(Job(f"utilde({name}, {N}, {p})", "utilde", (curves[name], N, p),
                                    check_locus, golden=GOLDEN_LOCI[(name, N, p)]))
        inputs = []
        for g, count, levels in ((2, 4, range(5, 14)), (3, 3, range(7, 15))):
            for k in range(count):
                m = random_model(H, rng, g, 5)
                inputs.append(f"genus {g}: y^2 + ({m.Q})y = {m.P}")
                for N in levels:
                    jobs.append(Job(f"scan(g{g}r{k}, {N})", "reduction_scan",
                                    (m, [N], RANDOM_WITNESSES, False), check_scan))
        return jobs, inputs
    if workload == "char0-search":
        jobs = [
            Job("charsearch(ex5, 11)", "characteristic_search", (curves["ex5"], 11),
                check_search, golden=GOLDEN_SEARCH[("ex5", 11)]),
            Job("charsearch(ex1, 7)", "characteristic_search", (curves["ex1"], 7),
                check_search, golden=GOLDEN_SEARCH[("ex1", 7)]),
            Job("utilde(ex5, 13, 0)", "utilde", (curves["ex5"], 13, 0), check_locus,
                golden=(0, locus_digest(H.Poly.one(H.QQ)))),
        ]
        inputs = []
        for k in range(2):
            m = random_model(H, rng, 2, 3)
            inputs.append(f"genus 2: y^2 + ({m.Q})y = {m.P}")
            for N in (6, 7, 8):
                jobs.append(Job(f"charsearch(g2r{k}, {N})", "characteristic_search", (m, N),
                                check_search))
        return jobs, inputs
    if workload == "certify-jacobian":
        keys = list(GOLDEN_CERTIFICATES)
        rng.shuffle(keys)
        jobs = [Job(f"verify({c}, {N}, {p})", "verify_utilde", (curves[c], N, p), check_certificates,
                    golden=GOLDEN_CERTIFICATES[(c, N, p)]) for c, N, p in keys]
        return jobs, ["order: " + ", ".join(j.label for j in jobs)]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# correctness gate: each check returns None when the result is right


def _exact_order_points(H, model, spec, N, x0, y0s):
    ctx = H.context_over(model, spec)
    for y in y0s:
        D = H.embed_point(ctx, H.FieldElement(spec, spec.from_int(x0)), H.FieldElement(spec, spec.from_int(y)))
        if not H.has_exact_order(D, N):
            return f"({x0}, {y}) does not have exact order {N} over {spec!r}"
    return None


def check_l32(H, job, locus):
    m, N, p = job.args
    gf = H.prime_field(p)
    if locus.utilde != H.Poly.x(gf):
        return f"level-32 locus mod {p} is {locus.utilde}, expected x"
    return (_exact_order_points(H, m, H.QQ, N, 0, (X051_Y0, -X051_Y0))
            or _exact_order_points(H, H.reduce_mod_p(m, p), gf, N, 0, (X051_Y0, -X051_Y0)))


def _affine_points(H, model):
    """Every affine point of a model over its prime field."""
    spec = model.field
    ctx = H.context_over(model)
    one = H.FieldElement(spec, spec.one())
    for x in range(spec.p):
        x0 = H.FieldElement(spec, x)
        for y0 in H.solve_quadratic(one, ctx.Q(x0), -ctx.P(x0)):
            yield ctx, x0, y0


def check_scan(H, job, verdicts):
    model, (N,), _, _ = job.args
    (v,) = verdicts
    if job.golden is not None and v.verdict != job.golden:
        return f"verdict {v.verdict}, expected {job.golden}"
    if v.verdict == "EMPTY" and v.witness is not None:
        # an empty locus mod p leaves no GF(p)-point of order dividing N
        reduced = H.reduce_mod_p(model, v.witness)
        for ctx, x0, y0 in _affine_points(H, reduced):
            D = H.embed_point(ctx, x0, y0)
            if H.scalar_mul(D, N).is_identity and not H.scalar_mul(D, 2).is_identity:
                return f"({x0}, {y0}) has order dividing {N} mod {v.witness}"
    elif v.verdict == "CANDIDATE":
        # every usable witness saw a nonempty locus: certify the first one
        p, note = next((q, note) for q, note in v.tried if note.startswith("degree"))
        if p ** int(note.split()[1]) < VERIFY_FIELD_CAP:
            report = H.verify_utilde(model, N, p)
            if report.locus_degree == 0 or len(report.certificates) != report.locus_degree:
                return f"witness {p} locus not certified"
    return None


def check_locus(H, job, locus):
    degree, digest = job.golden
    if (locus.degree, locus_digest(locus.utilde)) != (degree, digest):
        return f"locus degree {locus.degree} digest {locus_digest(locus.utilde)}, expected {job.golden}"
    return None


def _coeffs(f):
    return tuple(int(f.coeff(i)) for i in range(f.degree + 1))


def check_search(H, job, report):
    if job.golden is not None:
        exceptional, candidates, cofactor = job.golden
        got = (tuple((p, _coeffs(u)) for p, u in report.exceptional_primes),
               tuple(report.candidate_primes), report.unfactored_cofactor)
        if got != (exceptional, candidates, cofactor):
            return f"search gave {got}, expected {job.golden}"
        return None
    model, N = job.args
    for p, u in report.exceptional_primes:
        if p not in report.candidate_primes:
            return f"exceptional prime {p} is not a candidate"
        if p ** u.degree < VERIFY_FIELD_CAP:
            cert = H.verify_utilde(model, N, p)
            if cert.locus_degree != u.degree or len(cert.certificates) != u.degree:
                return f"locus mod {p} not certified: {cert.locus_degree} vs {u.degree}"
    return None


def check_certificates(H, job, report):
    certs = report.certificates
    if len(certs) != job.golden or report.locus_degree != job.golden:
        return f"{len(certs)} certificates for a degree-{report.locus_degree} locus, expected {job.golden}"
    for c in certs:
        if not (c.certified and c.order_divides_N and not c.in_two_torsion):
            return f"root {c.x0} not certified"
    return None
