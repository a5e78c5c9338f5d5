"""The package root re-exports nothing, so importing a module loads only what it uses."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_voa_modules(statement: str) -> list:
    """The ``voa`` modules a fresh interpreter holds after running statement."""
    code = (f"import json, sys\n{statement}\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'voa')))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout)


@pytest.mark.parametrize("statement, modules", [
    ("import voa", ["voa"]),
    ("import voa.remainder", ["voa", "voa.errors", "voa.remainder", "voa.terms"]),
    ("from voa import classical", ["voa", "voa.classical", "voa.errors", "voa.liedata",
                                   "voa.linalg", "voa.scalars", "voa.terms"]),
], ids=["root", "remainder", "classical"])
def test_import_loads_only_what_the_module_uses(statement, modules):
    assert loaded_voa_modules(statement) == modules
