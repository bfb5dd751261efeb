"""Learning-ledger discipline rule (RPL802).

The learning ledger is only gateable because every line has the same
shape — episode, scenario, reward, TD-error stats, epsilon, Q norms,
coverage, churn — which holds only while
:class:`repro.obs.learn.LearnRecorder` is the sole writer (its ``log()``
validates the required fields before appending).  An ad-hoc
``json.dump`` into a learn-log file forks the schema: ``repro learn
report`` chokes on the line, or ``repro learn gate`` silently scopes it
out and a divergent run sails through unevaluated.  The check itself
is the shared :class:`~repro.lint.rules.solewriter.SoleWriterRule`.
"""

from __future__ import annotations

from repro.lint.engine import register
from repro.lint.rules.solewriter import SoleWriterRule

_LEARN = ("learn_log", "learn-log", "learnlog")


@register
class AdHocLearnLogWriteRule(SoleWriterRule):
    """RPL802: learn-log records go through ``repro.obs.LearnRecorder.log()``."""

    code = "RPL802"
    name = "obs.learnlog-discipline"
    summary = (
        "ad-hoc write to a learning ledger; all records must go through "
        "repro.obs.LearnRecorder.log() so every line carries the shared "
        "per-episode schema"
    )
    allowed = "obs/learn.py"
    strings = _LEARN
    names = _LEARN
