"""The typed message registry: one versioned envelope for every document.

A :class:`MessageType` declares one *kind* of document the package puts
on a wire or a disk: its current version, the fields a valid payload
must carry, and the explicit ``migrate(vN -> vN+1)`` hooks that carry
old documents forward.  Every persisted document is tagged with the
envelope ``"schema": "repro-<kind>/<version>"`` inlined beside its
payload fields (the tag is a reserved top-level key, *not* a nesting
level — several document families pin the byte position of their first
payload key, so the envelope must stay flat).

* :func:`pack` stamps a payload with its kind's current tag after
  validating it (wire-safe values, required fields, no pre-existing
  ``"schema"`` key).
* :func:`load_document` does the reverse: parse the tag (or apply the
  kind's *legacy sniff* for documents written before tagging existed),
  run the migration chain up to the current version, validate the
  resulting payload, and return it with the tag stripped — so
  ``load_document(pack(kind, payload), kind) == payload`` and cached
  replays stay byte-identical.

Versioning policy (documented in ``docs/schema.md``): bump the version
whenever a reader of the previous version would misread a new document,
and register a migration from the previous version in the same change.
Migrations are total functions ``payload -> payload`` from version N to
exactly N+1; loaders chain them, so a v1 document loads through every
hop to current.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

from .canonical import SchemaError, content_key, ensure_wire_safe

__all__ = [
    "TAG_KEY",
    "MessageType",
    "load_document",
    "message_type",
    "pack",
    "parse_tag",
    "register",
    "registered_kinds",
    "schema_tag",
    "spec_key",
]

#: The reserved envelope key carrying the ``repro-<kind>/<N>`` tag.
TAG_KEY = "schema"

_TAG_PATTERN = re.compile(r"^repro-([a-z][a-z0-9-]*)/([0-9]+)$")

#: A migration hook: payload at version N -> payload at version N+1.
Migration = Callable[[Dict[str, object]], Dict[str, object]]

#: Required payload fields: name -> accepted types (empty = any value).
FieldSpec = Tuple[Tuple[str, Tuple[type, ...]], ...]


@dataclass(frozen=True)
class MessageType:
    """Declaration of one document kind the registry knows how to handle.

    Attributes:
        kind: Short lowercase family name (``record``, ``bench``, ...).
        version: Current version; :func:`pack` stamps it, loaders
            migrate up to it.
        required: Required payload fields with their accepted types
            (checked after migration; extra fields are always allowed,
            so payloads can grow without a version bump).
        legacy_version: Version to assume for *untagged* documents, for
            families that predate the envelope (``None`` = a missing
            tag is an error).
        migrations: ``{from_version: hook}`` where each hook produces
            the ``from_version + 1`` payload.
    """

    kind: str
    version: int
    required: FieldSpec = ()
    legacy_version: Optional[int] = None
    migrations: Mapping[int, Migration] = field(default_factory=dict)

    @property
    def tag(self) -> str:
        return f"repro-{self.kind}/{self.version}"

    def validate(self, payload: Mapping[str, object]) -> None:
        """Check required fields and their types (post-migration shape)."""
        for name, types in self.required:
            if name not in payload:
                raise SchemaError(
                    f"schema {self.tag!r} document is missing required "
                    f"field {name!r}"
                )
            value = payload[name]
            if not types:
                continue
            if isinstance(value, bool) and bool not in types:
                # bool subclasses int; an int-typed field must not
                # silently accept True/False.
                raise SchemaError(
                    f"schema {self.tag!r} field {name!r} expects "
                    f"{_type_names(types)}, got bool"
                )
            if not isinstance(value, tuple(types)):
                raise SchemaError(
                    f"schema {self.tag!r} field {name!r} expects "
                    f"{_type_names(types)}, got {type(value).__name__}"
                )


def _type_names(types: Tuple[type, ...]) -> str:
    return "/".join(t.__name__ for t in types)


_REGISTRY: Dict[str, MessageType] = {}


def register(message: MessageType) -> MessageType:
    """Add a message type to the global registry (kinds are unique)."""
    if message.kind in _REGISTRY:
        raise SchemaError(f"schema kind {message.kind!r} is already registered")
    if not _TAG_PATTERN.match(message.tag):
        raise SchemaError(f"invalid schema kind/version: {message.tag!r}")
    _REGISTRY[message.kind] = message
    return message


def registered_kinds() -> Tuple[str, ...]:
    """Every registered kind, sorted."""
    return tuple(sorted(_REGISTRY))


def message_type(kind: str) -> MessageType:
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise SchemaError(
            f"unknown schema kind {kind!r}; registered: {', '.join(registered_kinds())}"
        ) from None


def schema_tag(kind: str) -> str:
    """The current ``repro-<kind>/<N>`` tag of a registered kind."""
    return message_type(kind).tag


def spec_key(kind: str, fields: Mapping[str, object]) -> str:
    """Content-addressed cache key of a spec whose records are ``kind`` documents.

    The one key recipe of ``SynthesisJob``, ``VerificationSpec`` and
    ``FaultSpec``: the kind's current tag and the package version, then
    the spec's own ``fields``.  Bumping either invalidates every cached
    record of the kind.
    """
    from .. import __version__

    return content_key({"schema": schema_tag(kind), "version": __version__, **fields})


def parse_tag(tag: object) -> Tuple[str, int]:
    """Split a ``repro-<kind>/<N>`` tag into ``(kind, version)``."""
    match = _TAG_PATTERN.match(tag) if isinstance(tag, str) else None
    if match is None:
        raise SchemaError(
            f"malformed schema tag {tag!r}; expected 'repro-<kind>/<version>'"
        )
    return match.group(1), int(match.group(2))


def pack(kind: str, payload: Mapping[str, object]) -> Dict[str, object]:
    """Validate ``payload`` and stamp it with ``kind``'s current tag.

    The payload must be wire-safe, must carry the kind's required
    fields, and must not already contain the reserved ``"schema"`` key
    (double-tagging would make the envelope ambiguous on load).
    """
    message = message_type(kind)
    if TAG_KEY in payload:
        raise SchemaError(
            f"payload for schema {message.tag!r} already carries a "
            f"{TAG_KEY!r} key; the envelope tag is reserved"
        )
    ensure_wire_safe(dict(payload))
    message.validate(payload)
    document = dict(payload)
    document[TAG_KEY] = message.tag
    return document


def load_document(
    document: Mapping[str, object], kind: str, source: str = ""
) -> Dict[str, object]:
    """Parse, migrate and validate one document of ``kind``.

    Returns the payload with the envelope tag stripped.  Untagged
    documents are accepted only for kinds with a ``legacy_version``
    (document families that predate the envelope) and enter the
    migration chain at that version.  Raises :class:`SchemaError` — a
    ``ValueError`` — on a foreign tag, an unknown version with no
    migration path, or a payload that fails validation.
    """
    message = message_type(kind)
    where = f"{source}: " if source else ""
    if not isinstance(document, Mapping):
        raise SchemaError(
            f"{where}schema {message.tag!r} document must be a mapping, "
            f"got {type(document).__name__}"
        )
    tag = document.get(TAG_KEY)
    payload = {key: value for key, value in document.items() if key != TAG_KEY}
    if tag is None:
        if message.legacy_version is None:
            raise SchemaError(
                f"{where}document carries no schema tag; expected {message.tag!r}"
            )
        version = message.legacy_version
    else:
        tag_kind, version = parse_tag(tag)
        if tag_kind != message.kind:
            raise SchemaError(
                f"{where}document carries schema {tag!r}, expected {message.tag!r}"
            )
    while version != message.version:
        migrate = message.migrations.get(version)
        if migrate is None:
            raise SchemaError(
                f"{where}document carries schema 'repro-{message.kind}/{version}', "
                f"expected {message.tag!r}, and no migration path covers v{version}"
            )
        payload = dict(migrate(payload))
        version += 1
    message.validate(payload)
    return payload
