"""Performance-ledger discipline rule (RPL501).

The ledger's value is that every record has the same shape — run id,
git SHA, timestamp, config, flat metrics — which only holds while
:func:`repro.perf.record_run` is the sole writer.  An ad-hoc
``json.dump`` of metrics into a ledger file silently forks the schema:
``repro perf gate`` either chokes on the line or, worse, quietly skips
it and the regression sails through.  The check itself is the shared
:class:`~repro.lint.rules.solewriter.SoleWriterRule`.
"""

from __future__ import annotations

from repro.lint.engine import register
from repro.lint.rules.solewriter import SoleWriterRule


@register
class AdHocLedgerWriteRule(SoleWriterRule):
    """RPL501: ledger records go through ``repro.perf.record_run()``."""

    code = "RPL501"
    name = "perf.ledger-discipline"
    summary = (
        "ad-hoc write to a perf ledger; all records must go through "
        "repro.perf.record_run() so the schema stays uniform"
    )
    allowed = "perf/ledger.py"
    strings = ("ledger",)
    names = ("ledger",)
