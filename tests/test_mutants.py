"""The mutation gate's table still matches the code and the tests it names.

The gate itself (python3 tools/mutants.py) runs each mutant's tests on a
patched copy; it is a separate command, and this check only keeps its rows
from going stale.
"""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_mutant_applies_exactly_once():
    for mutant in mutants.MUTANTS:
        assert mutants.occurrences(mutant) == 1, mutant.name


def test_every_named_test_exists():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for mutant in mutants.MUTANTS:
        assert mutant.tests, mutant.name
        for test in mutant.tests:
            path, func = re.fullmatch(r"([\w/.]+)::(\w+)(\[.*\])?", test).group(1, 2)
            assert f"\ndef {func}(" in (ROOT / path).read_text(), test
