"""Correctness gate that feeds `pass_ratio` (1 - failed / attempted).

For the CLI workloads an operation is one check keyed by (tag, lambda, m).
A key of the reference that is missing from the report fails, a key with any
failing record fails, and a non-zero exit fails every operation of the call.
Keys the reference lacks are attempted but never fail by being new.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def check_key(record: dict) -> tuple:
    return (record["tag"], record["lambda"], record.get("m"))


def reference_path(d: int, lam: str) -> Path:
    return REFERENCE_DIR / f"d{d}-lambda{lam.replace('..', '-')}.json"


def load_reference(d: int, lam: str) -> set:
    keys = json.loads(reference_path(d, lam).read_text())["keys"]
    return {tuple(k) for k in keys}


def gate_checks(reference: set, records: list | None, code: int) -> tuple:
    """(attempted, failed) for one CLI call; records is None when the call
    wrote no report."""
    records = records or []
    present = {check_key(r) for r in records}
    failing = {check_key(r) for r in records if not r["pass"]}
    attempted = len(reference | present)
    if code != 0:
        return attempted, attempted
    return attempted, len(reference - present) + len(failing)
