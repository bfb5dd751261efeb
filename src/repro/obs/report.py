"""One renderer and one gate for every verdict report.

``repro perf compare|gate``, ``repro slo gate`` and ``repro learn
report|gate`` print a :class:`Report` — a
:class:`~repro.perf.regress.PerfComparison`,
:class:`~repro.obs.runtime.SloReport` or
:class:`~repro.obs.learn.LearnReport` — through :func:`render` in one
of :data:`FORMATS`, and turn it into an exit code with :func:`gate`.
Each report supplies only its content.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, ClassVar

from repro.errors import ObsError

#: The report formats every gate command accepts (github = Actions
#: workflow annotations).
FORMATS = ("text", "json", "github")


class Report:
    """Base of the gateable reports: a ``verdicts`` tuple in which any
    verdict whose ``status`` is ``fail_status`` fails the gate.

    Subclasses set ``gate_name`` (``"perf"``/``"slo"``/``"learn"``,
    which titles the all-clear notice and the warn-only message),
    ``failure_noun`` (the warn-only message's plural), ``all_clear``
    (the GitHub notice when nothing is annotated), and implement the
    text lines and the annotations; :meth:`payload` may be extended.
    """

    gate_name: ClassVar[str]
    failure_noun: ClassVar[str]
    all_clear: ClassVar[str]
    fail_status: ClassVar[str] = "fail"
    verdicts: tuple[Any, ...]

    @property
    def failures(self) -> tuple[Any, ...]:
        """The verdicts that fail the gate."""
        return tuple(v for v in self.verdicts if v.status == self.fail_status)

    @property
    def ok(self) -> bool:
        """Whether no verdict failed."""
        return not self.failures

    def verdict_lines(self, verbose: bool) -> list[str]:
        """One text line per shown verdict."""
        raise NotImplementedError

    def summary_line(self) -> str:
        """The closing text line."""
        raise NotImplementedError

    def annotations(self) -> list[tuple[str, str, str]]:
        """GitHub annotations as ``(level, title, message)`` triples."""
        raise NotImplementedError

    def payload(self) -> dict[str, Any]:
        """The JSON document: ``ok`` and every verdict's fields."""
        return {"ok": self.ok, "verdicts": [asdict(v) for v in self.verdicts]}


def render(report: Report, fmt: str = "text", verbose: bool = False) -> str:
    """A report in one of :data:`FORMATS`.

    ``text`` is the verdict lines, a blank line, and the summary line;
    ``verbose`` lets a report show verdicts it hides by default.
    ``json`` is the payload with indent 2 and sorted keys.  ``github``
    is one workflow command per annotation, or the all-clear notice.

    Raises:
        ObsError: On an unknown format.
    """
    if fmt == "text":
        lines = report.verdict_lines(verbose)
        if lines:
            lines.append("")
        lines.append(report.summary_line())
        return "\n".join(lines)
    if fmt == "json":
        return json.dumps(report.payload(), indent=2, sort_keys=True)
    if fmt == "github":
        notes = [
            f"::{level} title={title}::{message}"
            for level, title, message in report.annotations()
        ]
        return "\n".join(
            notes or [f"::notice title={report.gate_name} gate::{report.all_clear}"]
        )
    raise ObsError(f"unknown report format {fmt!r}; expected one of {FORMATS}")


def load_gate_config(path: str | Path, what: str) -> dict[str, Any]:
    """A gate's JSON config file (SLOs, convergence bounds) as a mapping.

    Raises:
        ObsError: When the file is unreadable, not JSON, or not an object.
    """
    source = Path(path)
    try:
        data = json.loads(source.read_text())
    except OSError as exc:
        raise ObsError(f"cannot read {what} {source}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ObsError(f"{source} is not JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ObsError(f"{source} must hold a JSON object")
    return data


@dataclass(frozen=True)
class GateResult:
    """What a gate decided about one report."""

    report: Report
    exit_code: int
    warn_only: bool = False


def gate(report: Report, warn_only: bool = False) -> GateResult:
    """Turn a report into an exit code (0 pass, 1 failed).

    ``warn_only`` reports failures but forces exit 0 — the CI bring-up
    mode while a baseline accumulates samples.
    """
    failed = not report.ok and not warn_only
    return GateResult(report=report, exit_code=1 if failed else 0,
                      warn_only=warn_only)
