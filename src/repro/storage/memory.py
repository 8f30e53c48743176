"""In-memory native XML store — the reproduction's stand-in for Sedna.

Documents are kept *serialized* (as Sedna keeps them paged on disk), so every
load really parses and every persist really serializes; the DataManager
charges simulated time proportional to the byte counts this backend reports.
Write statistics are tracked per document for the experiment reports. Each
document's UTF-8 byte size is kept beside its text, so reporting it never
re-encodes the document.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import StorageError
from ..xml.model import Document
from ..xml.parser import parse_document
from ..xml.serializer import serialize_document
from .base import StorageBackend


@dataclass
class StoreStats:
    loads: int = 0
    stores: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    per_document_stores: dict[str, int] = field(default_factory=dict)


class InMemoryStore(StorageBackend):
    def __init__(self) -> None:
        self._data: dict[str, tuple[str, int]] = {}  # name -> (text, UTF-8 bytes)
        self.stats = StoreStats()

    def store(self, doc: Document) -> int:
        text = serialize_document(doc)
        size = len(text) if text.isascii() else len(text.encode("utf-8"))
        self._data[doc.name] = (text, size)
        self.stats.stores += 1
        self.stats.bytes_written += size
        self.stats.per_document_stores[doc.name] = (
            self.stats.per_document_stores.get(doc.name, 0) + 1
        )
        return size

    def load(self, name: str) -> Document:
        try:
            text, size = self._data[name]
        except KeyError:
            raise StorageError(f"document {name!r} not in store") from None
        self.stats.loads += 1
        self.stats.bytes_read += size
        return parse_document(text, name=name)

    def exists(self, name: str) -> bool:
        return name in self._data

    def delete(self, name: str) -> None:
        if name not in self._data:
            raise StorageError(f"document {name!r} not in store")
        del self._data[name]

    def list_documents(self) -> list[str]:
        return sorted(self._data)

    def size_bytes(self, name: str) -> int:
        try:
            return self._data[name][1]
        except KeyError:
            raise StorageError(f"document {name!r} not in store") from None

    def raw(self, name: str) -> str:
        """Serialized text as stored (tests compare persisted states)."""
        try:
            return self._data[name][0]
        except KeyError:
            raise StorageError(f"document {name!r} not in store") from None
