"""Spans around the package's cross-module calls, for the traced run only.

``Tracer.install`` wraps each function in TARGETS at every binding the
package calls it through: the defining module's own global (intra-module
calls), each ``from .poly import ...`` copy in the other modules, and the
package namespace the benchmark calls into.  Nothing in the package source
changes, and the untraced run installs nothing (``assert_untraced``).

A span records its name, start, end, parent span and job.  Spans stay in
memory and are written out when the pass ends.  Self time is a span's
duration minus the time its child spans cover; the benchmark is
single-threaded, so child spans nest strictly inside their parent.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function) pairs, named <module>.<function> in the metrics
TARGETS = (
    ("poly", "exact_div"),
    ("poly", "poly_gcd"),
    ("poly", "gcd_primitive"),
    ("poly", "resultant"),
    ("poly", "roots_by_degree"),
    ("poly", "squarefree_part"),
    ("exactnum", "solve_quadratic"),
    ("exactnum", "make_extension"),
    ("linalg", "bareiss_det"),
    ("linalg", "berkowitz_det_mod"),
    ("linalg", "scalar_rank"),
    ("divpoly", "s_sequence"),
    ("divpoly", "pi_subdet"),
    ("curve", "reduce_mod_p"),
    ("torsion", "utilde"),
    ("jacobian", "verify_utilde"),
    ("jacobian", "add"),
    ("jacobian", "scalar_mul"),
    ("search", "factor_integer"),
    ("search", "reduction_scan"),
    ("search", "characteristic_search"),
)
POLY_KERNELS = tuple(f"poly.{fn}" for mod, fn in TARGETS if mod == "poly")
SHORTCUT_CHECKS = ("linalg.berkowitz_det_mod", "linalg.scalar_rank")
EXIT_KINDS = ("constant", "shortcut", "exhausted")
MARK = "__perfbench_span__"


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hyptorsion" or name.startswith("hyptorsion."))]


def _target_originals():
    """{metric name: original function} for the targets the package still has."""
    found = {}
    for mod, fn in TARGETS:
        try:
            module = importlib.import_module(f"hyptorsion.{mod}")
        except ImportError:
            continue
        orig = getattr(module, fn, None)
        if orig is not None:
            found[f"{mod}.{fn}"] = orig
    return found


def assert_untraced() -> None:
    """Raise if any package binding is one of our wrappers: untraced timing
    must run the original functions."""
    for module in _package_modules():
        for attr, value in vars(module).items():
            if hasattr(value, MARK):
                raise RuntimeError(f"{module.__name__}.{attr} is wrapped")


def _domain(H, dom) -> str:
    if dom is H.ZZ:
        return "ZZ"
    kind = getattr(dom, "kind", None)
    if kind == "rationals":
        return "QQ"
    if kind == "prime":
        return "GF(p<2^30)" if dom.p < 1 << 30 else "GF(p>=2^30)"
    return "GF(p^k)"


def _coeff_bits(dom_key: str, f) -> int:
    if dom_key == "ZZ":
        return max(map(abs, f.cs), default=0).bit_length()
    if dom_key == "QQ":
        return max((max(abs(c.numerator), c.denominator) for c in f.cs), default=0).bit_length()
    return (f.dom.p - 1).bit_length()  # residues of GF(p) and GF(p^k) coefficients


class Tracer:
    def __init__(self, H):
        self.H = H
        self.spans: list = []  # (name, start, end, parent index, job)
        self._stack: list = []  # [span index, time covered by children]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.sizes: dict = {}  # (kernel, domain) -> [operands, max degree, max coefficient bits]
        self.counts: Counter = Counter()
        self.job = None
        self.absent: list[str] = []
        self._patched: list = []  # (module, attribute, original)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        originals = _target_originals()
        self.absent = [f"{m}.{f}" for m, f in TARGETS if f"{m}.{f}" not in originals]
        modules = _package_modules()
        for name, orig in originals.items():
            wrapper = self._wrap(name, orig)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, orig))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def _wrap(self, name, fn):
        before = after = None
        if name in POLY_KERNELS:
            before = self._record_sizes
        elif name == "torsion.utilde":
            before, after = self._shortcut_checks, self._classify_exit
        spans, stack, calls, self_s = self.spans, self._stack, self.calls, self.self_s

        def wrapper(*args, **kwargs):
            token = before(name, args) if before is not None else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else None
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                calls[name] += 1
                spans[index] = (name, start, end, parent, self.job)
            if after is not None:
                after(args, result, token)
            return result

        setattr(wrapper, MARK, name)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-layer hooks --------------------------------------------------------

    def _record_sizes(self, name, args) -> None:
        for f in args:
            if isinstance(f, self.H.Poly):
                key = _domain(self.H, f.dom)
                entry = self.sizes.setdefault((name, key), [0, -1, 0])
                entry[0] += 1
                entry[1] = max(entry[1], f.degree)
                entry[2] = max(entry[2], _coeff_bits(key, f))

    def _shortcut_checks(self, name, args) -> int:
        return sum(self.calls[c] for c in SHORTCUT_CHECKS)

    def _classify_exit(self, args, locus, checks_before) -> None:
        """Exit kind of one utilde call, from its public result: every
        subdeterminant folded is exhaustion; a constant locus reached early is
        the constant-gcd exit; a nonconstant locus reached early needs the
        verified mod-h shortcut.  An early nonconstant exit without any
        shortcut check is counted as unexplained."""
        model, N = args[0], args[1]
        g = model.g
        total = len(self.H.subdet_indices(g, N)) if N > 2 * g else 0
        used = len(locus.subdets_used)
        shortcut_ran = sum(self.calls[c] for c in SHORTCUT_CHECKS) > checks_before
        if used == total and total:
            kind = "exhausted"
        elif locus.degree == 0:
            kind = "constant"
        else:
            kind = "shortcut" if shortcut_ran else "unexplained"
        self.counts[f"torsion.exit.{kind}"] += 1
        self.counts["torsion.subdets_used"] += used
        self.counts["torsion.subdets_total"] += total

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer numbers; targets missing from the package are left out."""
        out = {}
        for mod, fn in TARGETS:
            name = f"{mod}.{fn}"
            if name in self.absent:
                continue
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            if name in POLY_KERNELS:
                rows = [v for (k, _), v in self.sizes.items() if k == name]
                out[f"{name}.max_degree"] = max((r[1] for r in rows), default=0)
                out[f"{name}.max_coeff_bits"] = max((r[2] for r in rows), default=0)
        if "torsion.utilde" not in self.absent:
            for kind in EXIT_KINDS:
                out[f"torsion.exit.{kind}"] = self.counts[f"torsion.exit.{kind}"]
            used, total = self.counts["torsion.subdets_used"], self.counts["torsion.subdets_total"]
            out["torsion.subdets_used"] = used
            out["torsion.subdets_total"] = total
            out["torsion.subdet_ratio"] = used / total if total else 0.0
        return out

    def size_table(self) -> list:
        """[kernel, domain, operands, max degree, max coefficient bits] rows."""
        return [[k, d, *v] for (k, d), v in sorted(self.sizes.items())]

    def write(self, path, header: dict, t0: float) -> None:
        """Write the spans as JSON lines, times in seconds from ``t0``."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, start - t0, end - t0, parent, job]) + "\n")
