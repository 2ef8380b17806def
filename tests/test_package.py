"""The package as a whole: its imports, its export list and the README."""

import ast
import os
import pydoc
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import ietwords
from oracles import fibonacci_word

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(Path(ietwords.__file__).parent.glob("*.py"))


def test_modules_import_at_top_level():
    # an import cycle should break when the package is imported, not when
    # some function first runs
    nested = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{path.name}:{inner.lineno}" for inner in ast.walk(node)
                           if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert len(SOURCES) > 1
    assert nested == []


def test_oracles_import_nothing_from_the_package():
    # an oracle that shares code with ietwords would share its faults
    source = (ROOT / "tests" / "oracles.py").read_text(encoding="utf-8")
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported and not [name for name in imported
                             if name.split(".")[0] in ("", "ietwords")], imported


def test_pydoc_lists_every_public_name():
    names = ietwords.__all__
    assert names == sorted(names)
    public = {name for name, value in vars(ietwords).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert set(names) == public
    # pydoc shows a name imported from a submodule only when __all__ lists it
    text = pydoc.render_doc(ietwords, renderer=pydoc.plaintext)
    for name in names:
        assert re.search(rf"^    (class )?{name}\b", text, re.M), name
    # nor does it show a private name in the class tree or as a base class
    tree = text.split("\nCLASSES\n", 1)[1].split("\n    class ", 1)[0]
    assert "ietwords.analysis.ComplexityProfile" in tree
    assert not re.search(r"[\s.(]_", tree), tree
    assert not re.search(r"^    class \w+\([^)]*\b_", text, re.M)


def test_readme_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1]
    source = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run([sys.executable, "-c", source], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    word, good, roundtrip = done.stdout.splitlines()
    assert word.split() == list(fibonacci_word(30))
    assert good.startswith("good for map:")
    assert roundtrip == "OK"
