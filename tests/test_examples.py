"""Smoke tests: every shipped example imports and runs to completion.

Each example ends with assertions of its own headline claim, so a
passing ``main()`` is a meaningful check, not just an import test.
Importing every example catches a name an example imports that the
package no longer has.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def load_example(name):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_imports(name):
    assert callable(load_example(name).main)


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, capsys):
    module = load_example(name)
    module.main()
    out = capsys.readouterr().out
    assert out.strip()


def test_quickstart_reports_key_width(capsys):
    module = load_example("quickstart.py")
    module.main()
    out = capsys.readouterr().out
    assert "working key W" in out
    assert "correct key : matches=True" in out
    assert "wrong key   : matches=False" in out


def test_fir_example_hides_all_coefficients(capsys):
    module = load_example("fir_filter_protection.py")
    module.main()
    out = capsys.readouterr().out
    assert "obfuscated RTL leaks 0/12" in out


def test_attack_example_never_unlocks(capsys):
    module = load_example("untrusted_foundry_attack.py")
    module.main()
    out = capsys.readouterr().out
    assert "0/40 unlocked" in out
