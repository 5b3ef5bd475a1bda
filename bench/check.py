"""Output check: reference digests where recorded, invariants everywhere.

``digests.json`` holds the SHA-256 of every report and SVG the benchmark's
commands produce for the seeds it ships, recorded with ``record_digests.py``.
Output bytes must not change for the same argv and inputs, so for those
seeds a digest mismatch is a failed command. For every seed the invariants
below are checked too, which is all that can be checked for other seeds.
"""

from __future__ import annotations

import hashlib
import json
import platform
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

DIGESTS = Path(__file__).with_name("digests.json")


def reference(workload: str, seed: int) -> dict | None:
    """Recorded digests {command label: sha256} for this workload and seed.

    None when the seed was not recorded, or was recorded with another
    Python or NumPy version, whose Gamma streams may differ.
    """
    if not DIGESTS.exists():
        return None
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if (digests["python"], digests["numpy"]) != (platform.python_version(), np.__version__):
        return None
    return digests["workloads"].get(workload, {}).get(str(seed))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _unit(x) -> bool:
    return isinstance(x, (int, float)) and 0.0 <= x <= 1.0


def report_problems(data: bytes, draws: int, seed: int) -> list[str]:
    """Invariants of a nowcast/forecast JSON report."""
    try:
        report = json.loads(data)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    if report.get("m") != draws or report.get("seed") != seed:
        problems.append(f"m/seed {report.get('m')}/{report.get('seed')} != {draws}/{seed}")
    coalitions = report.get("coalitions") or {}
    if not coalitions:
        problems.append("no coalitions")
    for name, block in coalitions.items():
        p, sub = block.get("probability"), block.get("subset_probability")
        if not (_unit(p) and _unit(sub) and sub <= p):
            problems.append(f"coalition {name}: probability {p}, subset {sub}")
    parties = report.get("parties") or {}
    if not parties:
        problems.append("no parties")
    for pid, block in parties.items():
        ci = block.get("ci95")
        if not (isinstance(ci, list) and len(ci) == 2 and _unit(ci[0]) and _unit(ci[1])
                and ci[0] <= ci[1]):
            problems.append(f"party {pid}: ci95 {ci}")
    return problems


def svg_problems(data: bytes) -> list[str]:
    """An SVG must be well-formed XML with an <svg> root."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        return [f"SVG is not well-formed XML: {exc}"]
    if not root.tag.endswith("svg"):
        return [f"root element is {root.tag!r}, not svg"]
    return []


def problems(data: bytes, is_svg: bool, draws: int, seed: int,
             expected_digest: str | None) -> list[str]:
    """Everything wrong with one command's output; empty when it passes."""
    found = svg_problems(data) if is_svg else report_problems(data, draws, seed)
    if expected_digest is not None and sha256(data) != expected_digest:
        found.append("output differs from the reference digest")
    return found
