"""Shared base of the sole-writer rules (RPL501, RPL601, RPL801, RPL802).

The perf ledger, the run cache, the ops log and the learning ledger are
useful only while every entry has one shape, which holds only while one
blessed writer produces them.  An ad-hoc ``json.dump`` into one of
those files forks the schema: the reader chokes on the line, or a gate
silently scopes it out and a regression sails through.

Each rule flags write-ish calls (``json.dump``/``json.dumps``,
``open``, ``write_text``, ``.open``, ``.write``) whose receiver or
arguments name its file — a string constant containing one of its
string fragments, or a name or attribute containing one of its name
fragments — anywhere outside its allowed module.  A rule is a
:class:`SoleWriterRule` subclass that sets only those three things
plus its code, name and summary; the subclasses live in
:mod:`~repro.lint.rules.perfledger`, :mod:`~repro.lint.rules.cachedir`,
:mod:`~repro.lint.rules.opslog` and :mod:`~repro.lint.rules.learnlog`.
"""

from __future__ import annotations

import ast

from repro.lint.engine import Rule

#: Call shapes that write data: plain names and attribute tails.
_WRITE_NAMES = {"open"}
_WRITE_ATTRS = {"dump", "dumps", "open", "write", "write_text"}


def _contains(text: str, fragments: tuple[str, ...]) -> bool:
    lowered = text.lower()
    return any(fragment in lowered for fragment in fragments)


class SoleWriterRule(Rule):
    """Flags writes naming a protected file outside its allowed module.

    Class attributes:
        allowed: Package-relative path of the one module that may write.
        strings: Fragments that mark a string constant as the file.
        names: Fragments that mark a name or attribute as the file.
    """

    allowed: str = ""
    strings: tuple[str, ...] = ()
    names: tuple[str, ...] = ()

    @classmethod
    def applies_to(cls, module_path: str) -> bool:
        return module_path != cls.allowed

    def _names_file(self, node: ast.expr) -> bool:
        """Whether any sub-expression names the protected file."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                if _contains(sub.value, self.strings):
                    return True
            elif isinstance(sub, ast.Name):
                if _contains(sub.id, self.names):
                    return True
            elif isinstance(sub, ast.Attribute):
                if _contains(sub.attr, self.names):
                    return True
        return False

    def visit_Call(self, node: ast.Call) -> None:
        """Flag write calls whose receiver or arguments name the file."""
        func = node.func
        targets = list(node.args) + [kw.value for kw in node.keywords]
        if isinstance(func, ast.Attribute):
            is_write = func.attr in _WRITE_ATTRS
            targets.append(func.value)
        else:
            is_write = isinstance(func, ast.Name) and func.id in _WRITE_NAMES
        if is_write and any(self._names_file(t) for t in targets):
            self.report(node, self.summary)
        self.generic_visit(node)
