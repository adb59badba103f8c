"""Apply each mutant of ``mutants.py`` to a copy of the tree and run the tier-1 suite on it.

    python mutants/run.py            # every mutant
    python mutants/run.py M1 U3      # the named ones
    python mutants/run.py --list     # the list, without running it

Each mutant gets its own temporary copy of ``src/``, ``tests/``,
``tools/``, ``perfbench/`` (whose tracer table a test reads) and
``pyproject.toml``, where its one edit is applied; the
suite then runs there with ``-x -p no:cacheprovider``, without
``tests/test_mutant_list.py``: that test checks that each mutant's text
is in the unmutated tree, so in a mutated copy it would kill every
mutant by itself.  A mutant is killed when the suite fails, and the
report names the first failing test.
The unmutated copy runs first and must pass.  The exit status is 1 when
any mutant survives or an edit does not apply.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from mutants import MUTANTS, Mutant  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "tools", "perfbench", "pyproject.toml")
PYTEST = [
    sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
    "--ignore=tests/test_mutant_list.py",
]


def _copy_tree(dest: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, dest / name)


def _apply(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.id}: the old text occurs {count} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def _run_suite(tree: Path) -> tuple[bool, str, float]:
    """Whether the suite passed in ``tree``, its first failing test and the seconds it took."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    done = subprocess.run(PYTEST, cwd=tree, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return done.returncode == 0, failed.group(1) if failed else "", seconds


def run(mutant: Mutant | None) -> tuple[str, str, float]:
    """The outcome of one mutant (or of the unmutated tree): killed, survived or an error."""
    with tempfile.TemporaryDirectory(prefix="relkin-mutant-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        if mutant is not None:
            try:
                _apply(tree, mutant)
            except ValueError as exc:
                return "error", str(exc), 0.0
        passed, first, seconds = _run_suite(tree)
    if mutant is None:
        return ("passed" if passed else "failed"), first, seconds
    return ("survived" if passed else "killed"), first, seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ids", nargs="*", help="mutant ids to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the mutants and exit")
    args = parser.parse_args(argv)
    unknown = set(args.ids) - {m.id for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutant ids: {sorted(unknown)}")
    chosen = [m for m in MUTANTS if not args.ids or m.id in args.ids]
    if args.list:
        for m in chosen:
            note = f" [equivalent: {m.equivalent}]" if m.equivalent else ""
            print(f"{m.id:4s} {m.file}: {m.breaks}{note}")
        return 0
    outcome, first, seconds = run(None)
    print(f"{'base':4s} {outcome:8s} {seconds:5.1f}s  {first}", flush=True)
    if outcome != "passed":
        return 1
    bad = 0
    for m in chosen:
        if m.equivalent:
            print(f"{m.id:4s} {'skipped':8s} {'':6s} equivalent: {m.equivalent}", flush=True)
            continue
        outcome, first, seconds = run(m)
        bad += outcome != "killed"
        print(f"{m.id:4s} {outcome:8s} {seconds:5.1f}s  {first}  ({m.breaks})", flush=True)
    print(f"{len(chosen)} mutants, {bad} not killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
