"""The same-numbers gate: the pinned grid's artifacts against committed digests.

The pinned grid is ``bench run --runs 200 --seed 42 --solver both``, which
the session fixture ``benchmark_run`` runs once.  ``pinned_grid.json``
holds, for each (problem, solver) group of ``runs.csv``, a *counts* digest
over ``seed``, ``status``, ``iters`` and ``fevals`` and a *values* digest
over ``seed``, ``final_x*`` and ``final_F*``; and one digest each for
``summary.csv`` without ``avg_time_s``, for ``manifest.json`` and for every
``front_*`` file.  Times are left out, since they differ from run to run.

Each digest is the SHA-256 of the item's lines.  A 4-hex fingerprint per
line is stored beside it, so a failure names every item that moved and
prints the first line that differs.  The digests hold for this platform's
libm, as the bit pins of ``test_solver.py`` and ``test_subproblem.py`` do.
A change that moves numbers on purpose records them again with
``python tests/test_pinned_grid.py <artifact directory of the pinned grid>``
and says which digests moved and why.
"""
from __future__ import annotations

import csv
import hashlib
import json
import sys
from itertools import groupby
from pathlib import Path

PINNED = Path(__file__).with_name("pinned_grid.json")


def _hex(line: str) -> str:
    return hashlib.sha256(line.encode()).hexdigest()


def _item(lines: list[str]) -> dict:
    return {"digest": _hex("\n".join(lines)), "lines": "".join(_hex(line)[:4] for line in lines)}


def _csv_lines(path: Path, drop: str | None = None) -> list[str]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [j for j, name in enumerate(rows[0]) if name != drop]
    return [",".join(row[j] for j in keep) for row in rows]


def _lines(out: Path) -> dict[str, list[str]]:
    """Every item of the pinned grid's artifact directory ``out``: its name and its lines."""
    with (out / "runs.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    values = [c for c in rows[0] if c.startswith(("final_x", "final_F"))]
    items = {}
    for (prob, solver), grp in groupby(rows, key=lambda r: (r["problem"], r["solver"])):
        grp = list(grp)
        for kind, cols in (("counts", ["status", "iters", "fevals"]), ("values", values)):
            items[f"runs.csv {prob} {solver} {kind}"] = [",".join([r["seed"]] + [r[c] for c in cols]) for r in grp]
    items["summary.csv"] = _csv_lines(out / "summary.csv", drop="avg_time_s")
    for f in [out / "manifest.json"] + sorted(out.glob("front_*")):
        items[f.name] = f.read_text().splitlines()
    return items


def record(out: Path) -> dict:
    """The digest and the line fingerprints of every item, by name."""
    return {name: _item(lines) for name, lines in _lines(out).items()}


def _first_difference(name: str, want: str, lines: list[str]) -> str:
    """The moved item's name and its first line whose fingerprint differs from ``want``."""
    got = _item(lines)["lines"]
    i = next((j for j in range(0, max(len(want), len(got)), 4) if want[j : j + 4] != got[j : j + 4]), None)
    if i is None:
        return f"{name}: the digest moved, but no line fingerprint did"
    line = i // 4
    return f"{name}: line {line} is {lines[line] if line < len(lines) else '(missing)'}"


def test_pinned_grid_artifacts_match_their_digests(benchmark_run):
    want = json.loads(PINNED.read_text())
    got = _lines(benchmark_run["out"])
    moved = [
        _first_difference(name, want[name]["lines"], got[name]) if name in got else f"{name}: missing"
        for name in want
        if name not in got or _item(got[name])["digest"] != want[name]["digest"]
    ]
    moved += [f"{name}: not pinned" for name in got if name not in want]
    assert not moved, "the pinned grid moved:\n" + "\n".join(moved)


if __name__ == "__main__":
    PINNED.write_text(json.dumps(record(Path(sys.argv[1])), indent=1, sort_keys=True) + "\n")
