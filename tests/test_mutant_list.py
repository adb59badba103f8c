"""Every committed mutant still applies to the tree it is meant to mutate.

``mutants/run.py`` runs the tier-1 suite once per mutant, which takes
minutes.  A text edit that removes or duplicates a mutant's ``old`` text
leaves that mutant unusable; this test reports it in a second.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "mutants" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = load_mutants()


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])
def test_each_mutant_applies_once_and_changes_its_file(mutant):
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
