"""The append-only JSONL file under every evidence log.

The perf ledger, the ops log and the learning ledger each define only a
record schema; the file format is :class:`JsonlLedger`'s.  One record
is one sorted-key JSON object on one line, appended through a handle
opened once and flushed after every record, so readers see a record as
soon as :meth:`~JsonlLedger.append` returns and a crash loses at most
the line being written.

Torn-tail rule: a crash mid-append leaves an unterminated fragment as
the last line.  :meth:`~JsonlLedger.read` skips an unterminated final
line that does not parse, and a writer's first append truncates it
away (one that does parse is a complete record and gets its newline).
Any other bad line is corruption and raises.  Appends from several
processes interleave whole lines; the repair assumes no other process
is mid-append at the moment of a writer's first append.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Any, Mapping, Sequence, TypeVar

from repro.errors import ObsError, ReproError

_L = TypeVar("_L", bound="JsonlLedger")


class JsonlLedger:
    """One append-only JSONL file whose records carry ``fields``.

    ``error`` is the :class:`~repro.errors.ReproError` subclass raised
    on a bad record or an unreadable file, and ``name`` is what error
    messages call the file.  The file and its directory are created by
    the first append; :meth:`close` (or leaving a ``with`` block, or
    dropping the ledger) releases the handle, and a later append
    reopens it.
    """

    _fh: IO[str] | None = None

    def __init__(
        self,
        path: str | Path,
        fields: Sequence[str] = (),
        error: type[ReproError] = ObsError,
        name: str = "ledger",
    ) -> None:
        self.path = Path(path)
        self.fields = tuple(fields)
        self.error = error
        self.name = name
        self.written = 0

    def __enter__(self: _L) -> _L:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:
        self.close()

    def close(self) -> None:
        """Close the append handle (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def append(self, record: Mapping[str, Any]) -> dict[str, Any]:
        """Validate and append one record; returns the stored form.

        Raises:
            ReproError: When required fields are missing or the record
                is not JSON-serialisable.
        """
        missing = [f for f in self.fields if f not in record]
        if missing:
            raise self.error(f"{self.name} record missing fields {missing}")
        stored = dict(record)
        try:
            line = json.dumps(stored, sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise self.error(
                f"{self.name} record is not JSON-serialisable: {exc}"
            ) from exc
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._drop_torn_tail()
            self._fh = self.path.open("a", encoding="utf-8")
        self._fh.write(line + "\n")
        self._fh.flush()
        self.written += 1
        return stored

    def _drop_torn_tail(self) -> None:
        """End the file on a line boundary before the first append."""
        try:
            fh = self.path.open("rb+")
        except FileNotFoundError:
            return
        with fh:
            if fh.seek(0, os.SEEK_END) == 0:
                return
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) == b"\n":
                return
            fh.seek(0)
            data = fh.read()
            start = data.rfind(b"\n") + 1
            try:
                json.loads(data[start:])
            except ValueError:
                fh.truncate(start)
            else:
                fh.write(b"\n")

    def read(self) -> list[dict[str, Any]]:
        """All records in file order, skipping blank lines.

        Raises:
            ReproError: On an unreadable file, a non-JSON or non-object
                line, or a record missing required fields.
        """
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError as exc:
            raise self.error(f"cannot read {self.name} {self.path}: {exc}") from exc
        lines = text.split("\n")
        records: list[dict[str, Any]] = []
        for n, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if n == len(lines):  # unterminated: a torn append
                    break
                raise self.error(f"{self.path}:{n} is not JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise self.error(f"{self.path}:{n} is not a JSON object")
            missing = [f for f in self.fields if f not in record]
            if missing:
                raise self.error(f"{self.path}:{n} missing fields {missing}")
            records.append(record)
        return records
