"""Export a git revision's files into a directory, for side-by-side runs.

Used by ``sweep_cli.py --against`` and ``bench_pairs.py``.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def export_revision(rev: str, dest: Path, paths: tuple[str, ...] = ("src",)) -> None:
    """Unpack ``paths`` of ``rev``, a commit or a tree, under ``dest`` with
    ``git archive``."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev, *paths],
                             check=True, capture_output=True).stdout
    dest.mkdir(parents=True, exist_ok=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
