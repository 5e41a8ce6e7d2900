"""The one finding shape and its audited exceptions (``waivers.toml``).

Every rule reports :class:`Finding` objects.  ``key`` is the stable
waiver handle: built from module paths, function displays and
operation names — never line numbers — so waivers survive unrelated
churn.  A waiver matches a finding when its ``rule`` equals the
finding's code and its ``match`` pattern (fnmatch) matches the key.
Every waiver must carry a ``reason``; the CLI prints it next to the
waived finding so the audit trail stays visible.

```toml
[[waiver]]
rule = "RP011"
match = "RP011:CacheStore._append:open@*"
reason = "journal append is the io_lock's purpose; writers expect it"
```
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import List, Sequence

__all__ = [
    "Finding",
    "Waiver",
    "WaiverError",
    "apply_waivers",
    "load_waivers",
    "parse_waivers",
]


@dataclass
class Finding:
    """One finding of any rule; ``key`` is the stable waiver handle."""

    code: str
    key: str
    path: str
    line: int
    message: str
    col: int = 0
    waived: bool = False
    waiver_reason: str = ""

    def render(self) -> str:
        mark = f"  [waived: {self.waiver_reason}]" if self.waived else ""
        return (
            f"{self.path}:{self.line}:{self.col} {self.code} {self.message}{mark}"
        )


class WaiverError(ValueError):
    """A malformed waiver file (missing fields, bad types)."""


@dataclass(frozen=True)
class Waiver:
    rule: str
    match: str
    reason: str


def parse_waivers(text: str) -> List[Waiver]:
    """Parse waivers from TOML text, validating every entry."""
    data = tomllib.loads(text)
    waivers: List[Waiver] = []
    for i, entry in enumerate(data.get("waiver", [])):
        if not isinstance(entry, dict):
            raise WaiverError(f"waiver #{i + 1} is not a table")
        missing = [k for k in ("rule", "match", "reason") if not entry.get(k)]
        if missing:
            raise WaiverError(
                f"waiver #{i + 1} missing required field(s): "
                + ", ".join(missing)
            )
        waivers.append(
            Waiver(
                rule=str(entry["rule"]),
                match=str(entry["match"]),
                reason=str(entry["reason"]),
            )
        )
    return waivers


def load_waivers(path: str) -> List[Waiver]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_waivers(handle.read())


def apply_waivers(
    findings: Sequence[Finding], waivers: Sequence[Waiver]
) -> None:
    """Mark findings matched by a waiver (in place)."""
    for finding in findings:
        for waiver in waivers:
            if waiver.rule == finding.code and fnmatchcase(
                finding.key, waiver.match
            ):
                finding.waived = True
                finding.waiver_reason = waiver.reason
                break
