"""Source rules checked on the package text."""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "quasifrac"

# a handler that catches everything can silently replace data
CATCH_ALL = re.compile(r"^\s*except\s*(Exception\b[^:]*)?:", re.MULTILINE)


def test_no_catch_all_handlers():
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for m in CATCH_ALL.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            found.append(f"{path.name}:{line}: {m.group(0).strip()}")
    assert not found, "catch-all exception handlers:\n" + "\n".join(found)
