"""Uniform container for verification sweeps."""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class VerificationReport:
    kind: str
    checked: int = 0
    violations: list[dict] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    # a report over one exploration keeps the packed terminal state of each
    # violation here, by its position among the terminals; never serialized
    states: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, **violation) -> None:
        self.violations.append(violation)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "checked": self.checked,
            "ok": self.ok,
            "violations": self.violations,
            "info": self.info,
        }
