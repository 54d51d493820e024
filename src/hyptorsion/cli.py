"""Command-line frontend.

Subcommands:

    divpoly delta      stripped leftmost subdeterminant at level N
    divpoly cantor-p   the same with the classical sign normalization
    torsion utilde     the level-N locus polynomial
    torsion count      number of affine points of order dividing N, not 2
    torsion bounds     the bound families for (g, N)
    torsion check-div  locus-power divisibility of higher levels
    torsion rank-at    pointwise rank test at x0
    jacobian verify    certify the locus roots through Jacobian arithmetic
    scan               per-level emptiness verdicts via witness primes
    char-search        exceptional characteristics for one level

Exit codes: 0 success, 1 usage error, 2 mathematical falsification (a
theorem-violation path fired).  All numeric output is exact; JSON fields
are integers or exact strings, never floats.
"""

from __future__ import annotations

import argparse
import json
import sys

from .curve import HyperellipticModel, model_from_text, resolve_char
from .divpoly import cantor_P, delta
from .errors import TheoremViolation, UsageError
from .exactnum import FieldElement, QQ, make_extension, prime_field
from .jacobian import verify_utilde
from .poly import Poly
from .search import characteristic_search, reduction_scan
from .torsion import bounds, count_tilde, divisibility_check, rank_at, utilde

__all__ = ["main", "run"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")

    top = _Parser(
        prog="hyptorsion", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = top.add_subparsers(dest="command", required=True)

    def curve_opts(p, char=True, N=True):
        p.add_argument("--curve", required=True, help="curve file (char:/P:/Q: lines)")
        if char:
            p.add_argument("--char", type=int, default=None, help="target characteristic (default: the file's)")
        if N:
            p.add_argument("--N", type=int, required=True)

    dp = sub.add_parser("divpoly", help="division-polynomial objects").add_subparsers(
        dest="sub", required=True
    )
    for name in ("delta", "cantor-p"):
        p = dp.add_parser(name, parents=[common])
        curve_opts(p)

    to = sub.add_parser("torsion", help="torsion loci and bounds").add_subparsers(
        dest="sub", required=True
    )
    p = to.add_parser("utilde", parents=[common])
    curve_opts(p)
    p = to.add_parser("count", parents=[common])
    curve_opts(p)
    p = to.add_parser("bounds", parents=[common])
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--inseparable-p", type=int, default=None)
    p = to.add_parser("check-div", parents=[common])
    curve_opts(p)
    p.add_argument("--r", type=int, required=True)
    p = to.add_parser("rank-at", parents=[common])
    curve_opts(p)
    p.add_argument("--x0", required=True, help='"a/b", "r mod p", or ext coefficients "c0,c1,..."')

    p = sub.add_parser("jacobian", help="certify locus roots", parents=[common])
    p.add_argument("verb", choices=["verify"])
    curve_opts(p)

    p = sub.add_parser("scan", help="emptiness certificates over a level range", parents=[common])
    p.add_argument("--curve", required=True)
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.add_argument("--primes", type=_int_list, required=True, help="comma-separated witness primes")
    p.add_argument("--no-followup", action="store_true", help="skip characteristic-zero follow-up on candidates")

    p = sub.add_parser("char-search", help="exceptional characteristics at one level", parents=[common])
    p.add_argument("--curve", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--trial-bound", type=int, default=10**6)
    return top


def _int_list(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _load_model(path: str) -> HyperellipticModel:
    try:
        with open(path, encoding="utf-8") as fh:
            return model_from_text(fh.read())
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError(f"cannot read curve file: {e}") from e


def _poly_json(f: Poly, char: int, N: int) -> dict:
    return {
        "degree": f.degree,
        "coefficients": [str(c) if char == 0 else c for c in (f.map_to(QQ).cs if char == 0 else f.cs)],
        "char": char,
        "N": N,
    }


def _parse_x0(text: str, char: int) -> FieldElement:
    text = text.strip()
    if char == 0:
        return FieldElement(QQ, QQ.parse(text))
    if "," in text:
        k = len(text.split(","))
        spec = make_extension(char, k)
        return FieldElement(spec, spec.parse(text))
    spec = prime_field(char)
    return FieldElement(spec, spec.parse(text))


def _emit(args, payload: dict, human: str):
    if args.json:
        print(json.dumps(payload))
    else:
        print(human)


def run(argv=None) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    try:
        return _dispatch(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except TheoremViolation as e:
        print(f"FALSIFIED: {e}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "divpoly":
        model = _load_model(args.curve)
        char = resolve_char(model, args.char)
        f = delta(model, args.N, char) if args.sub == "delta" else cantor_P(model, args.N, char)
        _emit(args, _poly_json(f, char, args.N), str(f))
        return 0

    if cmd == "torsion":
        if args.sub == "bounds":
            rep = bounds(args.g, args.N, args.inseparable_p)
            payload = {
                "g": rep.g,
                "N": rep.N,
                "delta_bound": rep.delta_bound,
                "worst_bound": rep.worst_bound,
                "general_bound": rep.general_bound,
                "general_bound_branch": rep.general_bound_branch,
                "epsilon_table": list(rep.epsilon_table),
            }
            _emit(args, payload, "\n".join(f"{k}: {v}" for k, v in payload.items()))
            return 0
        model = _load_model(args.curve)
        char = resolve_char(model, args.char)
        if args.sub == "utilde":
            locus = utilde(model, args.N, char)
            payload = _poly_json(locus.utilde, char, args.N)
            payload["note"] = locus.note
            payload["leftmost_subdet_vanished"] = locus.all_subdets_zero_before
            human = str(locus.utilde) + (f"   # {locus.note}" if locus.note else "")
            _emit(args, payload, human)
            return 0
        if args.sub == "count":
            n = count_tilde(model, args.N, char)
            _emit(args, {"N": args.N, "char": char, "count": n}, str(n))
            return 0
        if args.sub == "check-div":
            rep = divisibility_check(model, args.N, args.r, char)
            payload = {
                "N": rep.N,
                "r": rep.r,
                "char": rep.char,
                "exponent": rep.exponent,
                "passed": rep.passed,
                "vacuous": rep.vacuous,
            }
            _emit(args, payload, ("PASS" if rep.passed else "FAIL") + (" (vacuous)" if rep.vacuous else ""))
            return 0 if rep.passed else 2
        if args.sub == "rank-at":
            x0 = _parse_x0(args.x0, char)
            rep = rank_at(model, args.N, x0)
            payload = {
                "N": rep.N,
                "rank": rep.rank,
                "max_rank": rep.max_rank,
                "is_torsion_x": rep.is_torsion_x,
            }
            _emit(args, payload, f"rank {rep.rank}/{rep.max_rank}: " + ("torsion" if rep.is_torsion_x else "not torsion"))
            return 0

    if cmd == "jacobian":
        model = _load_model(args.curve)
        char = resolve_char(model, args.char)
        rep = verify_utilde(model, args.N, char)
        rows = [
            {
                "x0_field_degree": c.x0_field_degree,
                "x0": c.x0,
                "y0": c.y0,
                "order_divides_N": c.order_divides_N,
                "in_two_torsion": c.in_two_torsion,
            }
            for c in rep.certificates
        ]
        payload = {
            "N": rep.N,
            "char": rep.char,
            "locus_degree": rep.locus_degree,
            "certificates": rows,
            "uncertified_roots": rep.uncertified_roots,
        }
        human = "\n".join(json.dumps(r) for r in rows) or "(no certifiable roots)"
        _emit(args, payload, human)
        return 0

    if cmd == "scan":
        model = _load_model(args.curve)
        if model.field.char != 0:
            raise UsageError("scan needs a characteristic-zero integral model")
        verdicts = reduction_scan(
            model,
            range(args.n_from, args.n_to + 1),
            args.primes,
            compute_char0_followup=not args.no_followup,
        )
        payload = {
            "verdicts": [
                {
                    "N": v.N,
                    "verdict": v.verdict,
                    "witness": v.witness,
                    "tried": [[str(p), note] for p, note in v.tried],
                    "followup_degree": v.followup.degree if v.followup else None,
                }
                for v in verdicts
            ]
        }
        human = "\n".join(
            f"N={v.N}: {v.verdict}" + (f" (witness {v.witness})" if v.witness else "")
            for v in verdicts
        )
        _emit(args, payload, human)
        return 0

    if cmd == "char-search":
        model = _load_model(args.curve)
        if model.field.char != 0:
            raise UsageError("char-search needs a characteristic-zero integral model")
        rep = characteristic_search(model, args.N, trial_bound=args.trial_bound)
        payload = {
            "N": rep.N,
            "generic_factor": str(rep.generic_factor),
            "exceptional_primes": [[p, str(locus)] for p, locus in rep.exceptional_primes],
            "candidate_primes": list(rep.candidate_primes),
            "resultant_gcd": str(rep.resultant_gcd),
            "unfactored_cofactor": str(rep.unfactored_cofactor),
            "common_content_primes": list(rep.common_content_primes),
            "skipped": [[p, why] for p, why in rep.skipped],
            "note": rep.note,
        }
        human = (
            f"generic factor: {rep.generic_factor}\n"
            + "\n".join(f"exceptional p={p}: {locus}" for p, locus in rep.exceptional_primes)
        ).rstrip()
        _emit(args, payload, human)
        return 0

    raise UsageError(f"unknown command {cmd!r}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
