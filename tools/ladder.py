"""Layer ladder for the cocycle-space solve and the socle computation, on one checkout or a pair.

    python3 tools/ladder.py [CHECKOUT]
    python3 tools/ladder.py PARENT CHANGE > BENCH_commalg.json
    python3 tools/ladder.py --spawn PARENT CHANGE > BENCH_cli_import.json

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
  `generic_degeneracy_search`;
- `radical_and_socle(Q[x]/x^j)`, j = 2..12;
- `truncated_polynomials(j)`, j = 2..12: building Q[x]/x^j, which checks
  the unit axiom and associativity on every basis triple.

dim Z^2 (or the certificate kind, the kernel dimension, or the radical and
socle dimensions) is reported beside each rung, so two ladders can be
checked to have computed the same thing.

With two checkouts, runs the one-checkout ladder on each in its own
process, three rounds alternating which checkout goes first, checks that
every rung computed the same thing, and prints one merged document per
rung: `parent_min_ms` and `change_min_ms`, the minimum over all rounds;
`parent_spread` and `change_spread`, (max - min) / min of the three
per-round minima, which shows how far the host's speed moved between
processes; and the speedup parent min / change min.

With `--spawn` and two checkouts, times CLI start-up instead: one rung per
`python -m nillat.cli <argv>` request kind of the benchmark's cli workload
(anosov, charpoly, units, symplectic decide, classify6, multiply,
filiform isom) plus `python -c pass`.  Parent and change spawn
alternately inside one timing loop, so a change of the host's speed hits
both sides alike, and each rung checks that both sides printed the same
stdout and exit code.  Each rung reports the min and median ms per side
in two columns: `host_env`, the environment as inherited, and `bytecode`,
with bytecode caching on (PYTHONDONTWRITEBYTECODE unset and
PYTHONPYCACHEPREFIX a temporary directory, warmed by one untimed spawn per
side, so nothing is written into either checkout).

Standard library only.  The layer ladder writes nothing to disk; the
spawn ladder writes only its temporary bytecode cache, which it removes,
and whatever bytecode the inherited environment lets the `host_env`
spawns write (none under PYTHONDONTWRITEBYTECODE=1).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPEATS = 5
ROUNDS = 3
SPAWN_REPEATS = 21
WHAT = ("layer ladder of the Z^2 solve: cocycle_space on H_1(Q[x]/x^j), j=2..8, and H_2(Q[x]/x^j), "
        "j=2..6; hk_degeneracy_check(Q[x]/x^j, 2), j=2..6; Matrix.kernel_basis on the stacked Z^2 rows "
        "of H_1(Q[x]/x^j), j=2..8; and of the socle computation: radical_and_socle(Q[x]/x^j) and the "
        "construction truncated_polynomials(j), j=2..12; min of %d wall-time samples and their spread "
        "(max-min)/min; a merged ladder takes the min over %d alternating rounds and the spread of the "
        "per-round minima" % (REPEATS, ROUNDS))


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
    from nillat.commalg import radical_and_socle, truncated_polynomials
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
    for j in range(2, 13):
        A = truncated_polynomials(j)
        rep, t = _time(lambda: radical_and_socle(A))
        rungs.append({"op": "radical_and_socle", "algebra": f"Q[x]/x^{j}", "dim": j,
                      "radical_dim": len(rep.radical), "socle_dim": len(rep.socle), **t})
    for j in range(2, 13):
        A, t = _time(lambda: truncated_polynomials(j))
        rungs.append({"op": "truncated_polynomials", "algebra": f"Q[x]/x^{j}", "dim": A.dim, **t})
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
    docs: dict[Path, list[dict]] = {parent: [], change: []}
    for r in range(ROUNDS):
        for checkout in (parent, change) if r % 2 == 0 else (change, parent):
            proc = subprocess.run([sys.executable, __file__, str(checkout)], capture_output=True, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"ladder failed on {checkout}:\n{proc.stderr}")
            docs[checkout].append(json.loads(proc.stdout))
    p, c = docs[parent][0], docs[change][0]
    if len({len(d["rungs"]) for d in docs[parent] + docs[change]}) != 1:
        raise SystemExit("the ladders have different rungs")
    rows = []
    for i, a in enumerate(p["rungs"]):
        same = {k: v for k, v in a.items() if k not in ("min_ms", "spread")}
        for d in docs[parent] + docs[change]:
            if same != {k: v for k, v in d["rungs"][i].items() if k not in ("min_ms", "spread")}:
                raise SystemExit(f"rung computed different things: {a} vs {d['rungs'][i]}")
        pm, cm = ([d["rungs"][i]["min_ms"] for d in docs[side]] for side in (parent, change))
        rows.append({**same,
                     "parent_min_ms": min(pm), "parent_spread": round((max(pm) - min(pm)) / min(pm), 3),
                     "change_min_ms": min(cm), "change_spread": round((max(cm) - min(cm)) / min(cm), 3),
                     "speedup": round(min(pm) / min(cm), 2)})
    return {
        "what": WHAT,
        "command": "python3 tools/ladder.py PARENT CHANGE",
        "parent": p["revision"],
        "change": c["revision"],
        "host": {k: p[k] for k in ("python", "nproc", "cpu_model")},
        "repeats": REPEATS,
        "rounds": ROUNDS,
        "rungs": rows,
    }


SPAWN_WHAT = ("CLI start-up: wall ms of one `python -m nillat.cli <argv>` subprocess per request kind of the "
              "cli workload, and of `python -c pass`; parent and change spawn alternately in one timing "
              "loop, %d spawns per side, min and median; column host_env inherits the environment, column "
              "bytecode turns bytecode caching on into a temporary PYTHONPYCACHEPREFIX" % SPAWN_REPEATS)

_LOCAL_DIM4 = {"dim": 4, "unit": [1, 0, 0, 0], "products": [
    [1, 1, [[1, 1]]], [1, 2, [[2, 1]]], [1, 3, [[3, 1]]], [1, 4, [[4, 1]]], [2, 2, [[3, 1]]], [2, 3, [[4, 1]]]]}
_SIX_D2 = {"dim": 6, "brackets": [[1, 3, [[5, 1]]], [1, 4, [[6, 1]]], [2, 3, [[6, 1]]], [2, 4, [[5, 2]]]]}
SPAWN_RUNGS = [
    ("pass", ["-c", "pass"]),
    ("anosov", ["-m", "nillat.cli", "anosov", "--matrix=1,5,2;2,-1,-1;3,2,0"]),
    ("charpoly", ["-m", "nillat.cli", "charpoly", "--matrix=1,1,0;1,2,1;0,1,2"]),
    ("units", ["-m", "nillat.cli", "units", "-m", "94"]),
    ("symplectic decide", ["-m", "nillat.cli", "symplectic", "decide", "--json", json.dumps(_LOCAL_DIM4)]),
    ("classify6", ["-m", "nillat.cli", "classify6", "--json", json.dumps(_SIX_D2)]),
    ("multiply", ["-m", "nillat.cli", "multiply", "--json", json.dumps({
        "model": {"kind": "HeisQuad", "params": {"d": 5}},
        "a": {"coords": [1, -2, 3, 0, 4, 1]}, "b": {"coords": [2, 5, -1, 3, 0, -4]}})]),
    ("filiform isom", ["-m", "nillat.cli", "filiform", "isom", "--a", '{"n":3,"g":[[1,0,0],[6,1,0],[1,9,1]]}',
                       "--b", '{"n":3,"g":[[1,0,0],[6,1,0],[2,9,1]]}']),
]


def _spawn(checkout: Path, argv: list[str], env: dict) -> tuple[float, tuple]:
    env = dict(env, PYTHONPATH=str(checkout / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=checkout, env=env, capture_output=True, text=True,
                          timeout=120)
    ms = 1000 * (time.perf_counter() - t0)
    return ms, (proc.returncode, proc.stdout, proc.stderr)


def _spawn_rung(name: str, parent: Path, change: Path, argv: list[str], env: dict, warm: bool) -> tuple[int, dict]:
    """(exit code, min and median ms per side) of SPAWN_REPEATS alternating spawns per side."""
    if warm:
        for checkout in (parent, change):
            _spawn(checkout, argv, env)
    samples: dict[Path, list[float]] = {parent: [], change: []}
    results = set()
    for r in range(SPAWN_REPEATS):
        for checkout in (parent, change) if r % 2 == 0 else (change, parent):
            ms, result = _spawn(checkout, argv, env)
            samples[checkout].append(ms)
            results.add(result)
    if len(results) != 1:
        raise SystemExit(f"spawn rung {name!r} answered differently: {sorted(results)}")
    code, _, stderr = results.pop()
    if stderr:
        raise SystemExit(f"spawn rung {name!r} wrote to stderr: {stderr}")
    pm, cm = (statistics.median(samples[side]) for side in (parent, change))
    return code, {"parent_min_ms": round(min(samples[parent]), 2), "parent_median_ms": round(pm, 2),
                  "change_min_ms": round(min(samples[change]), 2), "change_median_ms": round(cm, 2),
                  "median_speedup": round(pm / cm, 2)}


def _spawn_merged(parent: Path, change: Path) -> dict:
    rungs = []
    with tempfile.TemporaryDirectory(prefix="nillat-pycache-") as prefix:
        bytecode = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        bytecode["PYTHONPYCACHEPREFIX"] = prefix
        for name, argv in SPAWN_RUNGS:
            code, host = _spawn_rung(name, parent, change, argv, dict(os.environ), warm=False)
            _, cached = _spawn_rung(name, parent, change, argv, bytecode, warm=True)
            rungs.append({"rung": name, "argv": argv, "exit": code, "host_env": host, "bytecode": cached})
    return {
        "what": SPAWN_WHAT,
        "command": "python3 tools/ladder.py --spawn PARENT CHANGE",
        "parent": _revision(parent),
        "change": _revision(change),
        "host": {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
                 "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "repeats": SPAWN_REPEATS,
        "rungs": rungs,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkouts", nargs="*", default=[str(Path(__file__).resolve().parents[1])],
                    help="one checkout, or PARENT CHANGE for a merged comparison")
    ap.add_argument("--spawn", action="store_true", help="time CLI start-up of PARENT CHANGE instead")
    args = ap.parse_args()
    paths = [Path(c).resolve() for c in args.checkouts]
    if len(paths) > 2:
        ap.error("give one checkout or two")
    if args.spawn and len(paths) != 2:
        ap.error("--spawn needs PARENT CHANGE")
    for path in paths:
        if not (path / "src" / "nillat").is_dir():
            print(f"no src/nillat under {path}", file=sys.stderr)
            return 1
    if args.spawn:
        doc = _spawn_merged(*paths)
    else:
        doc = _one(paths[0]) if len(paths) == 1 else _merged(*paths)
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
