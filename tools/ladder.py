"""Layer ladder for the cocycle-space solve, on one checkout or a pair.

    python3 tools/ladder.py [CHECKOUT]
    python3 tools/ladder.py PARENT CHANGE > BENCH_sparse_z2.json

With one checkout (default: the checkout this script sits in), imports
`nillat` from CHECKOUT/src and prints one JSON document.  Each rung times
one call five times and reports the minimum and the spread (max - min) / min
of the wall time in ms:

- `cocycle_space` on H_1(Q[x]/x^j), j = 2..8 (dim 6..24);
- `cocycle_space` on H_2(Q[x]/x^j), j = 2..6 (dim 10..30);
- `hk_degeneracy_check(Q[x]/x^j, 2)`, j = 2..6, which solves the same
  H_2 system and reads every Z^2 form on the g-copy;
- `Matrix.kernel_basis` on the rows of every Z^2 form of H_1(Q[x]/x^j),
  j = 2..8, stacked: the common-kernel system of
  `generic_degeneracy_search`.

dim Z^2 (or the certificate kind, or the kernel dimension) is reported
beside each rung, so two ladders can be checked to have computed the same
thing.

With two checkouts, runs the one-checkout ladder on each in its own
process, parent first, checks that every rung computed the same thing, and
prints one merged document: `parent_*` and `change_*` per rung and the
speedup parent min / change min.  Standard library only; nothing is
written to disk.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

REPEATS = 5
WHAT = ("layer ladder of the Z^2 solve: cocycle_space on H_1(Q[x]/x^j), j=2..8, and H_2(Q[x]/x^j), "
        "j=2..6; hk_degeneracy_check(Q[x]/x^j, 2), j=2..6; Matrix.kernel_basis on the stacked Z^2 rows "
        "of H_1(Q[x]/x^j), j=2..8; min of %d wall-time samples and spread (max-min)/min" % REPEATS)


def _time(fn):
    samples, out = [], None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn()
        samples.append(1000 * (time.perf_counter() - t0))
    lo = min(samples)
    return out, {"min_ms": round(lo, 3), "spread": round((max(samples) - lo) / lo, 3)}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "unknown")
    except OSError:
        return "unknown"


def _revision(checkout: Path) -> str:
    """`git describe --always --dirty` of the checkout, or its directory name outside git."""
    try:
        proc = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return checkout.name
    return proc.stdout.strip() if proc.returncode == 0 else checkout.name


def ladder() -> list[dict]:
    from nillat.cocycles import cocycle_space
    from nillat.commalg import truncated_polynomials
    from nillat.heisenberg import heisenberg_over, hk_degeneracy_check
    from nillat.matrix import Matrix

    rungs = []
    for k, top in ((1, 8), (2, 6)):
        for j in range(2, top + 1):
            L = heisenberg_over(truncated_polynomials(j), k).algebra
            (z2, _), t = _time(lambda: cocycle_space(L))
            rungs.append({"op": "cocycle_space", "algebra": f"H_{k}(Q[x]/x^{j})", "dim": L.dim,
                          "z2_dim": len(z2), **t})
    for j in range(2, 7):
        cert, t = _time(lambda: hk_degeneracy_check(truncated_polynomials(j), 2))
        rungs.append({"op": "hk_degeneracy_check", "algebra": f"H_2(Q[x]/x^{j})", "dim": 5 * j,
                      "kind": cert.kind, **t})
    for j in range(2, 9):
        L = heisenberg_over(truncated_polynomials(j), 1).algebra
        stack = Matrix([row for form in cocycle_space(L)[0] for row in form.matrix.data])
        kernel, t = _time(stack.kernel_basis)
        rungs.append({"op": "Matrix.kernel_basis", "algebra": f"Z^2 rows of H_1(Q[x]/x^{j})", "dim": L.dim,
                      "rows": stack.rows, "kernel_dim": len(kernel), **t})
    return rungs


def _one(checkout: Path) -> dict:
    sys.path.insert(0, str(checkout / "src"))
    return {
        "revision": _revision(checkout),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "repeats": REPEATS,
        "what": WHAT,
        "rungs": ladder(),
    }


def _merged(parent: Path, change: Path) -> dict:
    docs = []
    for checkout in (parent, change):
        proc = subprocess.run([sys.executable, __file__, str(checkout)], capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"ladder failed on {checkout}:\n{proc.stderr}")
        docs.append(json.loads(proc.stdout))
    p, c = docs
    if len(p["rungs"]) != len(c["rungs"]):
        raise SystemExit("the two ladders have different rungs")
    rows = []
    for a, b in zip(p["rungs"], c["rungs"]):
        same = {k: v for k, v in a.items() if k not in ("min_ms", "spread")}
        if same != {k: v for k, v in b.items() if k not in ("min_ms", "spread")}:
            raise SystemExit(f"rung computed different things: {a} vs {b}")
        rows.append({**same,
                     "parent_min_ms": a["min_ms"], "parent_spread": a["spread"],
                     "change_min_ms": b["min_ms"], "change_spread": b["spread"],
                     "speedup": round(a["min_ms"] / b["min_ms"], 2)})
    return {
        "what": WHAT,
        "command": "python3 tools/ladder.py PARENT CHANGE",
        "parent": p["revision"],
        "change": c["revision"],
        "host": {k: p[k] for k in ("python", "nproc", "cpu_model")},
        "repeats": REPEATS,
        "rungs": rows,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkouts", nargs="*", default=[str(Path(__file__).resolve().parents[1])],
                    help="one checkout, or PARENT CHANGE for a merged comparison")
    args = ap.parse_args()
    paths = [Path(c).resolve() for c in args.checkouts]
    if len(paths) > 2:
        ap.error("give one checkout or two")
    for path in paths:
        if not (path / "src" / "nillat").is_dir():
            print(f"no src/nillat under {path}", file=sys.stderr)
            return 1
    doc = _one(paths[0]) if len(paths) == 1 else _merged(*paths)
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
