"""Lines-of-code counting.

Two uses:

* counting the synthetic kernel's LoC by subsystem (context for the
  call-graph analysis), and
* counting *this repository's own verifier implementation* — the
  Figure 2 cross-check: our verifier, like Linux's, spends most of its
  size on feature checks layered over a small symbolic-execution core,
  and the per-module breakdown quantifies that.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List


@dataclass
class LocEntry:
    """LoC of one source file."""

    path: str
    code: int
    comment: int
    blank: int

    @property
    def total(self) -> int:
        """All lines: code + comment + blank."""
        return self.code + self.comment + self.blank


def count_python_file(path: str) -> LocEntry:
    """Count code/comment/blank lines of one Python file.

    Docstrings are counted as comment lines (heuristically: contiguous
    regions opened and closed by triple quotes)."""
    code = comment = blank = 0
    in_doc = False
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if in_doc:
                comment += 1
                if line.endswith('"""') or line.endswith("'''"):
                    in_doc = False
                continue
            if not line:
                blank += 1
            elif line.startswith("#"):
                comment += 1
            elif line.startswith('"""') or line.startswith("'''"):
                comment += 1
                quote = line[:3]
                body = line[3:]
                if not (body.endswith(quote) and len(body) >= 3) \
                        and not (len(line) > 3 and line.endswith(quote)):
                    in_doc = True
            else:
                code += 1
    return LocEntry(path=path, code=code, comment=comment, blank=blank)


def count_package(package_dir: str) -> List[LocEntry]:
    """LoC entries for every ``.py`` file under a directory."""
    entries: List[LocEntry] = []
    for root, __, files in os.walk(package_dir):
        for name in sorted(files):
            if name.endswith(".py"):
                entries.append(count_python_file(
                    os.path.join(root, name)))
    return entries


def verifier_loc_breakdown() -> Dict[str, int]:
    """Code LoC of this repo's verifier, by module — the Figure 2
    cross-check subject."""
    import repro.ebpf.verifier as verifier_pkg
    package_dir = os.path.dirname(verifier_pkg.__file__)
    return {
        os.path.basename(entry.path): entry.code
        for entry in count_package(package_dir)
    }


def funcdb_loc_by_subsystem(db) -> Dict[str, int]:
    """Synthetic kernel LoC per subsystem."""
    totals: Dict[str, int] = {}
    for fn in db.functions:
        totals[fn.subsystem] = totals.get(fn.subsystem, 0) + fn.loc
    return totals
