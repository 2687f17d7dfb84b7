"""Mutation checks: the tier-1 suite must fail on each hand-made mutant of the source.

Run from the root of a checkout:

    python tests/mutants.py

Each entry of ``MUTANTS`` names a file, an exact text in it, the text that replaces it and
why the suite should notice.  The script copies ``src/``, ``tests/``, ``scenarios/`` and
``pyproject.toml`` to a temporary directory for each mutant, applies the one edit there and
runs ``pytest -x -q`` on the copy; the run must fail.  Up to ``WORKERS`` copies run at once.
It prints each mutant, the test that killed it, and every survivor.  An ``old`` text that
does not occur exactly once in its file is an error, so the list follows the code.
``EQUIVALENT`` lists mutants known to compute the same results: their texts are checked the
same way, but they are not run.

Exit status: 0 when every mutant is killed, 1 on a survivor or an entry whose text is gone,
2 when a mutated suite could not run (neither passed nor failed).  Pytest does not collect
this file.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scenarios", "pyproject.toml")
WORKERS = min(2, os.cpu_count() or 1)


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    reason: str


MUTANTS = [
    Mutant("src/conproj/compatibility.py", "2.0 / (n + 1) * d", "1.0 / (n + 1) * d",
           "T_i = c (g_ij g^kl D^j_kl - 2 D^p_pi / (n + 1)): the 2 of the trace term"),
    Mutant("src/conproj/compatibility.py", "c = (n + 1) / ((n + 2) * (n - 1))",
           "c = (n + 1) / ((n + 2) * (n - 1)) * (1 + 1e-9)",
           "the trace coefficient of T_i moved by 1e-9"),
    Mutant("src/conproj/compatibility.py", " + (d + np.swapaxes(d, -2, -1))", "",
           "condition A without its delta terms"),
    Mutant("src/conproj/compatibility.py", "(down / (n + 1))", "(down / n)",
           "condition A's delta terms T_k / (n + 1) read as T_k / n"),
    Mutant("src/conproj/compatibility.py",
           "        batch.report(~np.isfinite([scale, max_a, max_b]).all(0), jets._NON_FINITE)\n",
           "        pass\n", "the figures of a point not tested for non-finite values"),
    Mutant("src/conproj/compatibility.py", "    if fails:\n", "    if False:\n",
           "a failed null cone never flagged at its point"),
    Mutant("src/conproj/compatibility.py", "    if skipped:\n", "    if False:\n",
           "the sweep's rows returned unfiltered when a point was skipped"),
    Mutant("src/conproj/compatibility.py", "(np.arange(n) - m[:, None, None]) % n",
           "np.arange(n)", "a null vector's draws taken in eigenvector order, not plus leg first"),
    Mutant("src/conproj/compatibility.py", "on = (m > 0) & (m < n) & (count > 0)",
           "on = (m < n) & (count > 0)", "a null cone drawn at positive-definite points"),
    Mutant("src/conproj/scenario.py", "jets.sub(t, drift_traces(s, v[0], *g), None)", "t",
           "a drift's traces without those of s (x) h"),
    Mutant("src/conproj/geometry.py", "jets.mul(jets.matvec(g, s), trace, None)",
           "jets.matvec(g, s)", "the drift trace g_ij s^j g^kl h_kl without its factor g^kl h_kl"),
    Mutant("src/conproj/compatibility.py", "return up, a, b, max_a / scale,",
           "return up, a, b, max_a,", "the A residual left unscaled"),
    Mutant("src/conproj/recovery.py", "np.any(w != 0.0, axis=1) | (order > 0)",
           "np.ones(m, dtype=bool)", "quadrature evaluating zero-length segments at order 0"),
    Mutant("src/conproj/cone.py", "np.argmax(np.abs(g) > 1e-12)", "np.argmax(g != 0.0)",
           "the canonical sign from the first nonzero entry, however small"),
    Mutant("src/conproj/geometry.py", 'dh.swapaxes(-2, -3).swapaxes(-3, -4), 0.5, order="C")',
           'dh.swapaxes(-2, -3).swapaxes(-3, -4), 0.25, order="C")',
           "1/4 for 1/2 in the Levi-Civita traces"),
    Mutant("src/conproj/geometry.py", "return _rows(jets.matvec(g, jets.matvec(hinv, a)), b.data)",
           "return _rows(jets.matvec(hinv, a), b.data)",
           "the Levi-Civita trace g^kl Gamma^j_kl left unlowered by g"),
    Mutant("src/conproj/jets.py", "                hessian += np.swapaxes(cross, -1, -2)\n", "",
           "jets.mul without the transposed cross term of the Hessian"),
    Mutant("src/conproj/jets.py", "[(np.isnan(f0), domain)] + overflow",
           "overflow + [(np.isnan(f0), domain)]",
           "apply_function names an overflow before a domain NaN"),
    Mutant("src/conproj/expressions.py", "np.broadcast_to(mask, self.shape) & (self.rank > rank)",
           "np.broadcast_to(mask, self.shape)", "Batch.flag overwrites a point's earlier error"),
    Mutant("src/conproj/expressions.py",
           "        if key in self._keys:\n"
           "            return self._keys[key]\n"
           '        node = self._add(key, "expr"',
           '        node = self._add(None, "expr"', "Plan.expr without interning equal subtrees"),
    Mutant("src/conproj/expressions.py", "elif all(x in self._const for x in operands):",
           "elif False:", "Plan.expr without folding constant operands"),
    Mutant("src/conproj/expressions.py", "dead[i].append(x)", "pass",
           "Plan.finish without freeing a slot after its last read"),
    Mutant("src/conproj/scenario.py", "jets.matvec(v[1], jets.derivative(f))", "jets.derivative(f)",
           "a drift potential's gradient used as S^i without g^ij"),
    Mutant("src/conproj/cone.py", "@lru_cache(maxsize=16)", "@lru_cache(maxsize=None)",
           "an unbounded cache of the cone's unknowns"),
    Mutant("src/conproj/cone.py",
           "rows.flags.writeable = cols.flags.writeable = off.flags.writeable = False", "pass",
           "writable cached index arrays"),
]

EQUIVALENT = [
    Mutant("src/conproj/geometry.py", "np.trace(gamma.data, axis1=-4, axis2=-3)",
           "np.trace(gamma.data, axis1=-4, axis2=-2)",
           "Gamma^p_pi traced on the other lower index: Gamma is symmetric in its lower indices"),
    Mutant("src/conproj/compatibility.py", "np.array([[False], [True]])",
           "np.array([[True], [False]])",
           "the null-cone legs stored minus first: they are summed, and float addition commutes"),
]


def _edited(mutant: Mutant, text: str) -> str:
    """``text`` with ``mutant`` applied; ``ValueError`` unless its old text occurs exactly once."""
    found = text.count(mutant.old)
    if found != 1:
        raise ValueError(f"{mutant.file}: the old text occurs {found} times: {mutant.old!r}")
    return text.replace(mutant.old, mutant.new)


def _run(mutant: Mutant) -> tuple:
    """Pytest's exit code on a copy of the checkout with ``mutant`` applied, its output and
    its wall time."""
    began = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="conproj-mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, copy / name)
        path = copy / mutant.file
        path.write_text(_edited(mutant, path.read_text(encoding="utf-8")), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    return done.returncode, done.stdout + done.stderr, time.perf_counter() - began


def main() -> int:
    try:  # every text first, so a stale entry fails before any run
        for mutant in MUTANTS + EQUIVALENT:
            _edited(mutant, (ROOT / mutant.file).read_text(encoding="utf-8"))
    except ValueError as err:
        print(f"error: {err}")
        return 1
    survivors, broken, start = [], [], time.perf_counter()
    with ThreadPoolExecutor(WORKERS) as pool:
        runs = list(pool.map(_run, MUTANTS))
    for mutant, (code, output, took) in zip(MUTANTS, runs):
        if code == 1:
            killer = re.search(r"^FAILED (\S+)", output, re.MULTILINE)
            print(f"killed   {took:5.1f} s  {mutant.reason}: {killer[1] if killer else '?'}")
        elif code == 0:
            survivors.append(mutant)
            print(f"SURVIVED {took:5.1f} s  {mutant.reason}")
        else:
            broken.append(mutant)
            print(f"BROKEN   {took:5.1f} s  {mutant.reason}: pytest exit {code}\n{output[-2000:]}")
    for mutant in EQUIVALENT:
        print(f"equivalent, not run: {mutant.reason}")
    print(f"{len(MUTANTS)} mutants in {time.perf_counter() - start:.1f} s: "
          f"{len(survivors)} survived, {len(broken)} did not run")
    for mutant in survivors:
        print(f"survivor: {mutant.file}: {mutant.old!r} -> {mutant.new!r} ({mutant.reason})")
    return 1 if survivors else 2 if broken else 0


if __name__ == "__main__":
    raise SystemExit(main())
