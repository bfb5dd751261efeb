"""Run-cache discipline rule (RPL601).

The run cache (:mod:`repro.cache`) is content-addressed: every entry
file is named by the sha256 of its job spec and engine version, written
atomically, and validated on read.  A direct write into the cache
directory bypasses all three properties — the entry's name no longer
proves its content, a half-written file can be probed mid-write, and a
schema drift turns into silently-wrong sweep rows instead of a clean
miss.  The deliberately narrow fragments keep unrelated caches
(functools memoisation, CPU caches) out of scope.  The check itself is
the shared :class:`~repro.lint.rules.solewriter.SoleWriterRule`.
"""

from __future__ import annotations

from repro.lint.engine import register
from repro.lint.rules.solewriter import SoleWriterRule


@register
class AdHocCacheWriteRule(SoleWriterRule):
    """RPL601: run-cache entries go through ``repro.cache.RunCache``."""

    code = "RPL601"
    name = "cache.store-discipline"
    summary = (
        "ad-hoc write into the run-cache directory; entries must go "
        "through repro.cache.RunCache so keys stay content-addressed "
        "and writes atomic"
    )
    allowed = "cache/store.py"
    strings = (".repro/cache", "repro_cache_dir")
    names = ("cache_dir", "cache_path", "cache_root", "cache_env_var")
