"""Every public name of the package has a caller outside the tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "convwatt").glob("*.py")) + sorted(
    path for path in (ROOT / "bench").glob("*.py") if not path.name.startswith("test_")
)

# Public names kept without a non-test caller, each with its reason.
ALLOWED: set[str] = set()

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def public_definitions(tree: ast.Module):
    """Module-level functions and classes, and the methods and properties of
    those classes, whose names do not start with an underscore."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body if isinstance(item, FUNCTIONS))


def used_names(tree: ast.Module):
    """Names read as a bare name or as an attribute; import lines and strings
    (such as the entries of __all__) are not uses."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def unused_public_names(sources: dict[str, str]) -> dict[str, str]:
    """Public name -> defining file, for the names that no file reads."""
    defined, used = {}, set()
    for where, text in sources.items():
        tree = ast.parse(text, filename=where)
        for name in public_definitions(tree):
            if not name.startswith("_"):
                defined.setdefault(name, where)
        used.update(used_names(tree))
    return {name: where for name, where in defined.items() if name not in used}


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = unused_public_names(
        {path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
         for path in SOURCES}
    )
    # an allowed name that gains a caller, or goes away, leaves the list too
    assert unused.keys() == ALLOWED, unused


# (module text, names it leaves without a reader); each case checks one rule
# of the guard against a module small enough to read at a glance.
GUARD_CASES = {
    "dead-function": ("def dead():\n    pass\n", {"dead"}),
    "called-function": ("def live():\n    pass\n\nlive()\n", set()),
    "dead-class": ("class Dead:\n    pass\n", {"Dead"}),
    "dead-method": (
        "class Box:\n    def dead(self):\n        pass\n\nBox()\n", {"dead"}
    ),
    "dead-property": (
        "class Box:\n    @property\n    def size(self):\n        return 1\n\nBox()\n",
        {"size"},
    ),
    "attribute-read": (
        "class Box:\n    def size(self):\n        return 1\n\nBox().size()\n", set()
    ),
    "all-string-only": ('__all__ = ["dead"]\n\ndef dead():\n    pass\n', {"dead"}),
    "import-only": ("from os import path as dead\n\ndef dead():\n    pass\n", {"dead"}),
    "private-ignored": ("def _helper():\n    pass\n\nclass _Box:\n    pass\n", set()),
    "nested-ignored": (
        "def outer():\n    def inner():\n        pass\n\nouter()\n", set()
    ),
}


@pytest.mark.parametrize("case", list(GUARD_CASES))
def test_guard_rules(case):
    text, unused = GUARD_CASES[case]
    assert unused_public_names({"m.py": text}).keys() == unused


def test_guard_counts_a_read_in_another_file():
    sources = {"a.py": "def shared():\n    pass\n", "b.py": "import a\n\na.shared()\n"}
    assert unused_public_names(sources) == {}
