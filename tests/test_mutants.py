"""The mutation table in mutants/ stays in step with the code it mutates."""

import re
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNNER = runpy.run_path(str(ROOT / "mutants" / "run.py"))
ROWS, REPORT = RUNNER["ROWS"], RUNNER["REPORT"]


def test_the_mutation_table_matches_the_code():
    # every row's old text occurs once in its module, so a refactor that
    # moves or rewrites the mutated code fails here instead of leaving the
    # table stale, and every test killer names a test that exists
    stale = []
    for row in ROWS:
        text = (ROOT / "src" / "askeykit" / row.file).read_text(encoding="utf-8")
        if text.count(row.old) != 1 or row.old == row.new:
            stale.append(row.what)
        if row.killer != REPORT:
            path, name = row.killer.split("::")
            source = (ROOT / path).read_text(encoding="utf-8")
            if not re.search(rf"^def {name.split('[')[0]}\(", source, re.M):
                stale.append(row.killer)
    assert stale == []
    # one report row end to end, on a copy: the unmutated copy passes, the
    # mutant fails, and src/ is left as it was
    row = next(row for row in ROWS if row.killer == REPORT)
    before = {p: p.read_bytes() for p in (ROOT / "src").rglob("*.py")}
    assert not RUNNER["outcome"](None)["report"]
    assert RUNNER["outcome"](row)["report"]
    assert {p: p.read_bytes() for p in (ROOT / "src").rglob("*.py")} == before
