"""Recompute the golden values of workloads.py and certify each one through
an independent route.

    python3 perfbench/goldens.py

Every locus in GOLDEN_LOCI is certified root by root with Mumford arithmetic
(``verify_utilde``), every exceptional prime of GOLDEN_SEARCH likewise, and
the constant characteristic-zero locus by a witness-prime emptiness
certificate.  The script prints the tables to paste into workloads.py and
exits 1 if a stored value differs from the recomputed one.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hyptorsion as H  # noqa: E402

from workloads import CURVES, GOLDEN_LOCI, GOLDEN_SEARCH, locus_digest  # noqa: E402


def main() -> int:
    curves = {name: H.model_from_text(text) for name, text in CURVES.items()}
    ok = True
    print("GOLDEN_LOCI = {")
    for (name, N, p), stored in GOLDEN_LOCI.items():
        locus = H.utilde(curves[name], N, p)
        got = (locus.degree, locus_digest(locus.utilde))
        report = H.verify_utilde(curves[name], N, p)
        if len(report.certificates) != locus.degree:
            raise SystemExit(f"({name}, {N}, {p}): {len(report.certificates)} certificates")
        ok &= got == stored
        print(f"    ({name!r}, {N}, {p}): {got!r},")
    print("}")
    for (name, N), (exceptional, _, _) in GOLDEN_SEARCH.items():
        report = H.characteristic_search(curves[name], N)
        for p, u in report.exceptional_primes:
            cert = H.verify_utilde(curves[name], N, p)
            if len(cert.certificates) != u.degree:
                raise SystemExit(f"search ({name}, {N}) prime {p} not certified")
        print(f"search ({name}, {N}):", [(p, str(u)) for p, u in report.exceptional_primes],
              report.candidate_primes, report.unfactored_cofactor)
    (v,) = H.reduction_scan(curves["ex5"], [13], [3, 5, 7, 11], False)
    print("utilde(ex5, 13, 0) is 1:", H.utilde(curves["ex5"], 13, 0).degree == 0,
          "witness", v.verdict, v.witness)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
