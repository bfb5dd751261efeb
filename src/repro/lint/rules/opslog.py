"""Ops-log discipline rule (RPL801).

The ops log is only queryable because every line has the same shape —
timestamp, kind, trace/request ids, outcome, latencies — which holds
only while :class:`repro.obs.opslog.OpsLogger` is the sole writer (its
``log()`` validates the required fields before appending).  An ad-hoc
``json.dump`` into an ops-log file forks the schema: ``repro ops
summary`` chokes on the line, or ``repro slo gate`` silently scopes it
out and a violation sails through unevaluated.  The check itself is
the shared :class:`~repro.lint.rules.solewriter.SoleWriterRule`.
"""

from __future__ import annotations

from repro.lint.engine import register
from repro.lint.rules.solewriter import SoleWriterRule

_OPS = ("ops_log", "ops-log", "opslog")


@register
class AdHocOpsLogWriteRule(SoleWriterRule):
    """RPL801: ops-log records go through ``repro.obs.OpsLogger.log()``."""

    code = "RPL801"
    name = "obs.opslog-discipline"
    summary = (
        "ad-hoc write to an ops log; all records must go through "
        "repro.obs.OpsLogger.log() so every line carries the shared "
        "record schema"
    )
    allowed = "obs/opslog.py"
    strings = _OPS
    names = _OPS
