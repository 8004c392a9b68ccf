"""The one canonical JSON line encoder.

Every byte-pinned artifact in the project — trace digests and golden
files (``repro.sim.trace``), metrics JSONL (``repro.obs.export``),
span JSONL (``repro.obs.causal``) — frames its records the same way:
one JSON object per line, keys sorted, default separators, a single
trailing newline.  That framing used to be spelled out independently
at each site; this module is the single definition, and
``tests/test_canonical.py`` pins the exact bytes so no call site can
drift without tripping a golden.

The same goes for the way back in and the way out to disk:
:func:`read_jsonl` is the one loop that splits such a text into
objects (the trace, span, flight and metrics readers all sit on it, so
a bad line fails the same way in each — a ``ValueError`` naming the
family and the line), and :func:`write_text` the one place a rendered
artifact is written.

The encoding is deliberately the plain ``json.dumps(obj,
sort_keys=True)`` form (ASCII-safe escapes, ``", "``/``": "``
separators): that is what every historical golden file and committed
trace digest was produced with, so adopting the shared encoder is a
pure refactor — byte-for-byte identical output.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, Tuple, Union


def canonical_json(obj: Any) -> str:
    """One object as canonical JSON text (sorted keys, no newline)."""
    return json.dumps(obj, sort_keys=True)


def canonical_line(obj: Any) -> bytes:
    """One object as a canonical newline-framed JSON line (bytes)."""
    return canonical_json(obj).encode("utf-8") + b"\n"


def canonical_jsonl(objs: Iterable[Any]) -> str:
    """Many objects as canonical JSON lines (empty input → empty text)."""
    lines = [canonical_json(obj) for obj in objs]
    return "\n".join(lines) + ("\n" if lines else "")


def canonical_digest(objs: Iterable[Any]) -> str:
    """SHA-256 hex digest over the canonical line stream of ``objs``.

    Folding :func:`canonical_line` of each object into one running
    SHA-256 — the exact computation ``trace_digest`` and
    :class:`~repro.sim.trace.TraceDigester` perform, available to any
    other stream that wants digest pinning.
    """
    sha = hashlib.sha256()
    for obj in objs:
        sha.update(canonical_line(obj))
    return sha.hexdigest()


def read_jsonl(
    text: str,
    what: str,
    parse: Callable[[Dict[str, Any]], Any] = lambda data: data,
) -> Iterator[Tuple[int, Any]]:
    """Yield ``(line_number, parse(object))`` per non-blank line of ``text``.

    The text comes from a file someone hands a command, so a line that
    is not JSON, is not a JSON *object*, or that ``parse`` (the family's
    own reading of one line, raising ``ValueError``) turns down is a
    ``ValueError`` that names ``what`` and the 1-based line.
    """
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{what} line {line_number}"
        try:
            data = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"{where}: not valid JSON ({error})") from error
        if not isinstance(data, dict):
            raise ValueError(
                f"{where}: not a JSON object ({type(data).__name__})"
            )
        try:
            parsed = parse(data)
        except ValueError as error:
            raise ValueError(f"{where}: {error}") from error
        yield line_number, parsed


def require_fields(data: Dict[str, Any], fields: Iterable[str]) -> None:
    """``ValueError`` naming the first of ``fields`` that ``data`` lacks."""
    for name in fields:
        if name not in data:
            raise ValueError(f"missing field {name!r}")


def write_text(path: Union[str, Path], text: str) -> Path:
    """Write ``text`` to ``path`` (UTF-8), creating its directory; returns it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path
