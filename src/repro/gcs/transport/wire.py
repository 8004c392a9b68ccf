"""The datagram wire format: length-prefixed canonical JSON.

Every byte the network transports move is produced and consumed here,
in one self-describing encoding:

* **Framing** — a frame is a 4-byte big-endian length followed by
  exactly that many bytes of canonical JSON (sorted keys, default
  separators — the same :mod:`repro.obs.canonical` convention every
  other byte-pinned artifact in the project uses).  UDP carries one
  frame per datagram.

* **Values** — JSON scalars (``None``, ``bool``, ``int``, ``float``,
  ``str``) encode as themselves.  Containers and protocol dataclasses
  encode as *tagged arrays* so decoding is unambiguous:
  ``["T", [...]]`` for tuples, ``["L", [...]]`` for lists, ``["F",
  [sorted ints]]`` for frozensets of process ids, ``["D", [[k, v],
  ...]]`` for dicts, and ``["C", "ClassName", {field: value, ...}]``
  for the registered protocol dataclasses.

* **Safety** — decoding constructs only classes in the explicit
  :data:`WIRE_CLASSES` registry, with exact field-name validation.
  Truncated frames, oversized lengths, garbage bytes, unknown tags and
  unregistered classes all raise
  :class:`~repro.errors.WireFormatError` — refused at the boundary in
  the driver's tamper-rejection style, never half-applied.

The encoding is deliberately deterministic: the same payload object
always yields the same bytes (sorted keys, sorted frozensets), so wire
bytes can be pinned in goldens and compared across transports.
"""

from __future__ import annotations

import json
import struct
from dataclasses import fields, is_dataclass
from typing import Any, Dict, Optional, Tuple, Type

from repro.errors import WireFormatError
from repro.types import ProcessId

#: Hard cap on one frame's body, bytes.  GCS control traffic is tiny;
#: a larger prefix is a corrupt or hostile length, not a real frame.
MAX_FRAME_BYTES = 1 << 24

_LENGTH = struct.Struct(">I")


def _wire_classes() -> Dict[str, type]:
    """The decode registry: every dataclass allowed on the wire.

    Built lazily (module import order: the app layer imports the GCS,
    not vice versa) and cached.  Anything outside this registry is
    refused by :func:`decode_value`.
    """
    from repro.app.replicated_store import PutOp, SyncOffer
    from repro.core.dfls import ConfirmItem
    from repro.core.knowledge import StateItem
    from repro.core.message import Message, Piggyback
    from repro.core.mr1p import (
        AttemptVoteItem,
        FailCallItem,
        InfoItem,
        ShareItem,
        TryItem,
    )
    from repro.core.session import Session
    from repro.core.view import View
    from repro.core.ykd import AttemptItem
    from repro.gcs.membership import Ack, Install, Nudge, Propose
    from repro.gcs.vsync import ViewMessage

    return {
        cls.__name__: cls
        for cls in (
            # Membership control plane.
            Propose, Ack, Install, Nudge,
            # View-synchronous envelope.
            ViewMessage,
            # Application/algorithm envelope.
            Message, Piggyback,
            # Value objects.
            Session, View,
            # Per-algorithm protocol items.
            StateItem, AttemptItem, ConfirmItem,
            TryItem, AttemptVoteItem, ShareItem, InfoItem, FailCallItem,
            # Replicated-store application payloads.
            PutOp, SyncOffer,
        )
    }


_REGISTRY: Optional[Dict[str, type]] = None


def wire_registry() -> Dict[str, type]:
    """The (cached) name → class decode registry."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _wire_classes()
    return _REGISTRY


# ----------------------------------------------------------------------
# Value encoding.
# ----------------------------------------------------------------------


def encode_value(value: Any) -> Any:
    """One payload value as a JSON-compatible tagged structure."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return ["T", [encode_value(item) for item in value]]
    if isinstance(value, list):
        return ["L", [encode_value(item) for item in value]]
    if isinstance(value, frozenset):
        members = sorted(value)
        if not all(isinstance(member, int) for member in members):
            raise WireFormatError(
                "only frozensets of process ids travel on the wire"
            )
        return ["F", members]
    if isinstance(value, dict):
        return [
            "D",
            [
                [encode_value(key), encode_value(val)]
                for key, val in sorted(value.items())
            ],
        ]
    if is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        if name not in wire_registry():
            raise WireFormatError(
                f"{name} is not a registered wire payload class"
            )
        return [
            "C",
            name,
            {
                f.name: encode_value(getattr(value, f.name))
                for f in fields(value)
            },
        ]
    raise WireFormatError(
        f"cannot encode {type(value).__name__} for the wire"
    )


def decode_value(data: Any) -> Any:
    """Inverse of :func:`encode_value`; refuses anything unregistered."""
    if data is None or isinstance(data, (bool, int, float, str)):
        return data
    if not isinstance(data, list) or not data:
        raise WireFormatError(f"malformed wire value: {data!r}")
    tag = data[0]
    if tag == "T" and len(data) == 2 and isinstance(data[1], list):
        return tuple(decode_value(item) for item in data[1])
    if tag == "L" and len(data) == 2 and isinstance(data[1], list):
        return [decode_value(item) for item in data[1]]
    if tag == "F" and len(data) == 2 and isinstance(data[1], list):
        if not all(isinstance(member, int) for member in data[1]):
            raise WireFormatError("frozenset members must be process ids")
        return frozenset(data[1])
    if tag == "D" and len(data) == 2 and isinstance(data[1], list):
        out = {}
        for entry in data[1]:
            if not isinstance(entry, list) or len(entry) != 2:
                raise WireFormatError(f"malformed dict entry: {entry!r}")
            out[decode_value(entry[0])] = decode_value(entry[1])
        return out
    if tag == "C" and len(data) == 3 and isinstance(data[2], dict):
        cls = wire_registry().get(data[1])
        if cls is None:
            raise WireFormatError(
                f"unregistered wire payload class {data[1]!r}"
            )
        declared = {f.name for f in fields(cls)}
        if set(data[2]) != declared:
            raise WireFormatError(
                f"{data[1]} fields {sorted(data[2])} do not match the "
                f"declared {sorted(declared)}"
            )
        try:
            return cls(
                **{name: decode_value(raw) for name, raw in data[2].items()}
            )
        except WireFormatError:
            raise
        except Exception as exc:
            raise WireFormatError(
                f"{data[1]} rejected decoded fields: {exc}"
            ) from exc
    raise WireFormatError(f"unknown wire tag in {data!r}")


# ----------------------------------------------------------------------
# Datagram encoding and framing.
# ----------------------------------------------------------------------


def encode_datagram(
    src: ProcessId, dst: ProcessId, payload: Any
) -> Dict[str, Any]:
    """The JSON body of one stack-level datagram."""
    return {"dst": dst, "payload": encode_value(payload), "src": src}


def decode_datagram(body: Dict[str, Any]) -> Tuple[ProcessId, ProcessId, Any]:
    """Inverse of :func:`encode_datagram` → ``(src, dst, payload)``."""
    if not isinstance(body, dict) or set(body) != {"src", "dst", "payload"}:
        raise WireFormatError(f"malformed datagram body: {body!r}")
    src, dst = body["src"], body["dst"]
    if not isinstance(src, int) or not isinstance(dst, int):
        raise WireFormatError("datagram endpoints must be process ids")
    return src, dst, decode_value(body["payload"])


def frame(body: Any) -> bytes:
    """One JSON-compatible body as a length-prefixed canonical frame."""
    encoded = json.dumps(body, sort_keys=True).encode("utf-8")
    if len(encoded) > MAX_FRAME_BYTES:
        raise WireFormatError(
            f"frame body of {len(encoded)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    return _LENGTH.pack(len(encoded)) + encoded


def deframe(data: bytes) -> Any:
    """Decode exactly one frame; refuses truncation and trailing bytes.

    A UDP datagram carries exactly one frame, so anything short of one
    complete well-formed frame, or anything after it, raises
    :class:`~repro.errors.WireFormatError`.
    """
    if len(data) < _LENGTH.size:
        raise WireFormatError("truncated frame: missing length prefix")
    (length,) = _LENGTH.unpack_from(data)
    if length > MAX_FRAME_BYTES:
        raise WireFormatError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    end = _LENGTH.size + length
    if len(data) < end:
        raise WireFormatError(
            f"truncated frame: {len(data) - _LENGTH.size} of {length} "
            "body bytes present"
        )
    raw = data[_LENGTH.size:end]
    try:
        body = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireFormatError(f"frame body is not canonical JSON: {exc}") from exc
    if len(data) != end:
        raise WireFormatError(
            f"{len(data) - end} trailing bytes after the frame"
        )
    return body
