"""DESIGN.md's "Module map" lists exactly the modules under ``src/repro``.

The map is an indented tree inside a fenced block: a line whose first word
ends in ``/`` opens a directory, a line whose first word ends in ``.py``
names a module in the directory of the enclosing indentation, and every
other line continues a description.  Package ``__init__.py`` files are not
listed.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def mapped_modules() -> set[str]:
    """Paths (relative to ``src/repro``) the module map lists."""
    text = (ROOT / "DESIGN.md").read_text()
    block = text.split("## Module map", 1)[1].split("```", 2)[1]
    stack: list[tuple[int, str]] = []  # (indent, directory name)
    found = set()
    for line in block.splitlines():
        words = line.split()
        if not words or words[0] == "src/repro/":
            continue
        indent = len(line) - len(line.lstrip())
        while stack and stack[-1][0] >= indent:
            stack.pop()
        parent = "/".join(name for _, name in stack)
        word = words[0]
        if word.endswith("/"):
            stack.append((indent, word.rstrip("/")))
        elif word.endswith(".py"):
            found.add(f"{parent}/{word}" if parent else word)
    return found


def source_modules() -> set[str]:
    return {
        p.relative_to(SRC).as_posix()
        for p in SRC.rglob("*.py")
        if p.name != "__init__.py"
    }


def test_every_module_is_mapped():
    missing = sorted(source_modules() - mapped_modules())
    assert not missing, f"modules missing from DESIGN.md's module map: {missing}"


def test_every_mapped_module_exists():
    stale = sorted(mapped_modules() - source_modules())
    assert not stale, f"DESIGN.md's module map lists missing files: {stale}"
