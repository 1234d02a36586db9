"""Run each mutant of mutants/list.py through tier-1 and report survivors.

Usage: python3 mutants/run.py

The repository (without .git) is copied to a temporary directory once; for
each entry its module is restored from the source, the entry's old text,
which must occur exactly once, is replaced, and tier-1 runs there with -x
(PYTHONPATH=src python -m pytest -q -x). A mutant is killed when tier-1
fails. The unmutated copy runs first and must pass. Exit status: 0 when
every mutant is killed, 1 when one survives, 2 when the unmutated copy
fails or an entry does not apply. Standard library only.
"""

from __future__ import annotations

import os
import runpy
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900


def tier1(copy: Path) -> tuple[bool, str]:
    """Run tier-1 with -x in copy: (passed, the first failing test or '')."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    try:
        run = subprocess.run(
            cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return False, f"timeout after {TIMEOUT_S} s"
    lines = run.stdout.splitlines()
    failed = [line.split(" ", 2)[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return run.returncode == 0, failed[0] if failed else ""


def main() -> int:
    mutants = runpy.run_path(str(ROOT / "mutants" / "list.py"))["MUTANTS"]
    with tempfile.TemporaryDirectory(prefix="qfam-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        ignore = shutil.ignore_patterns(".git", "__pycache__", "*.egg-info")
        shutil.copytree(ROOT, copy, ignore=ignore)
        passed, first = tier1(copy)
        if not passed:
            print(f"the unmutated copy fails tier-1 at {first}")
            return 2
        survivors = 0
        for k, m in enumerate(mutants, 1):
            source = (ROOT / m["module"]).read_text()
            if source.count(m["old"]) != 1:
                count = source.count(m["old"])
                print(f"[{k}] {m['module']}: the old text occurs {count} times, not once")
                return 2
            target = copy / m["module"]
            target.write_text(source.replace(m["old"], m["new"]))
            start = time.perf_counter()
            try:
                passed, first = tier1(copy)
            finally:
                target.write_text(source)
            took = time.perf_counter() - start
            if passed:
                survivors += 1
                print(f"[{k}] SURVIVED ({took:.0f} s): {m['weakens']}")
                continue
            named = "" if first == m["killed_by"] else f" (listed: {m['killed_by']})"
            print(f"[{k}] killed ({took:.0f} s) by {first}{named}: {m['weakens']}")
    print(f"{len(mutants) - survivors} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
