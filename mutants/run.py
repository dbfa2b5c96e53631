"""Mutation harness: apply each row of mutants/rows.py to a copy of src/ and
check that its declared killer fails.

    python mutants/run.py          # every row; exit status 1 on any survivor
    python mutants/run.py 0 7      # only rows 0 and 7, by their index in the table

For each row the runner copies src/ into a fresh temporary directory,
replaces the row's old text (which must occur exactly once) by its new text
in the copy, and runs `askeykit verify --seed 7 --max-n 3 --max-m 3` on it.
A row whose killer is a test id also runs that one tier-1 test against the
copy, with a fixed hypothesis seed and no shrinking (mutants/noshrink.py).
The row is killed when its killer fails: `report` when verify exits
nonzero, a test when pytest reports a failure (any other pytest status,
such as an unknown test id, is an error of the table).  Before the rows,
the unmutated copy must pass verify, so a broken environment cannot pass
for a killed row.  src/ is never written.
"""

from __future__ import annotations

import os
import runpy
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TABLE = runpy.run_path(str(HERE / "rows.py"))
ROWS, REPORT = TABLE["ROWS"], TABLE["REPORT"]
VERIFY = ["-m", "askeykit", "verify", "--seed", "7", "--max-n", "3", "--max-m", "3"]


def _copy(row, tmp: Path) -> Path:
    """src/ copied under tmp with the row applied (None: unmutated); returns the copy's src/."""
    src = tmp / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    if row is not None:
        path = src / "askeykit" / row.file
        text = path.read_text(encoding="utf-8")
        if text.count(row.old) != 1:
            raise ValueError(f"{row.what}: the old text occurs {text.count(row.old)} times in {row.file}")
        path.write_text(text.replace(row.old, row.new), encoding="utf-8")
    return src


def _run(args, src: Path, tmp: Path) -> int:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(src), str(HERE))), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, *args], cwd=tmp, env=env, capture_output=True, timeout=600)
    return done.returncode


def outcome(row) -> dict:
    """{"report": verify failed, "test": the killer test failed (None for a report row)}."""
    with tempfile.TemporaryDirectory(prefix="askeykit-mutant-") as name:
        tmp = Path(name)
        src = _copy(row, tmp)
        out = {"report": _run([*VERIFY, "--output", str(tmp / "report.json")], src, tmp) != 0, "test": None}
        if row is not None and row.killer != REPORT:
            status = _run(
                ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "noshrink", "--hypothesis-profile=mutant",
                 "--hypothesis-seed=0", "-o", f"pythonpath={src}", str(ROOT / row.killer)],
                src, tmp,
            )
            if status not in (0, 1):
                raise ValueError(f"{row.what}: pytest exited {status} on {row.killer}")
            out["test"] = status == 1
        return out


def main(argv) -> int:
    start = time.perf_counter()
    if outcome(None)["report"]:
        print("the unmutated copy fails verify; no row can be judged", file=sys.stderr)
        return 2
    picked = [int(a) for a in argv] or range(len(ROWS))
    survivors = []
    for i in picked:
        row, t0 = ROWS[i], time.perf_counter()
        res = outcome(row)
        hit = res["report"] if row.killer == REPORT else res["test"]
        if not hit:
            survivors.append(i)
        seen = "report fails" if res["report"] else "report passes"
        print(f"{i:2d} {'killed' if hit else 'SURVIVED'} by {row.killer} ({seen}, "
              f"{time.perf_counter() - t0:.1f} s): {row.what}")
    print(f"{len(picked) - len(survivors)}/{len(picked)} killed in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
