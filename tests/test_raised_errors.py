"""Every exception class the package defines is raised somewhere in it."""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parents[1] / "src" / "fftriccati"
BASE = "FftRiccatiError"


def defined_errors(source):
    """Names of the classes in ``source`` that derive, directly or not, from BASE."""
    bases = {node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
             for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)}
    found = {BASE}
    grew = True
    while grew:
        new = {name for name, parents in bases.items() if parents & found} - found
        found |= new
        grew = bool(new)
    return found - {BASE}


def raised_names(source):
    """Names that appear as ``raise Name`` or ``raise Name(...)``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_detector_follows_subclasses_and_calls():
    src = ("class FftRiccatiError(Exception): pass\n"
           "class A(FftRiccatiError): pass\nclass B(A): pass\n"
           "class C(ValueError): pass\n")
    assert defined_errors(src) == {"A", "B"}
    assert raised_names("raise A('x')\nraise B\nraise\n") == {"A", "B"}


def test_every_error_is_raised():
    defined = defined_errors((PKG / "errors.py").read_text())
    raised = set().union(*(raised_names(p.read_text()) for p in PKG.glob("*.py")))
    assert defined, "no error classes found"
    assert not defined - raised, "never raised: " + ", ".join(sorted(defined - raised))
