"""Unit tests for storage backends and the DataManager."""

import pytest

from repro.errors import StorageError
from repro.storage import DataManager, FileStore, InMemoryStore
from repro.update import ChangeOp, apply_update
from repro.xml import E, doc, serialize_document

from .conftest import make_people_doc


class TestInMemoryStore:
    def test_store_and_load_roundtrip(self):
        store = InMemoryStore()
        d = make_people_doc()
        size = store.store(d)
        assert size > 0
        loaded = store.load("d1")
        assert serialize_document(loaded) == serialize_document(d)
        assert loaded.name == "d1"

    def test_load_missing_raises(self):
        with pytest.raises(StorageError):
            InMemoryStore().load("ghost")

    def test_exists_delete_list(self):
        store = InMemoryStore()
        store.store(doc("a", E("r")))
        store.store(doc("b", E("r")))
        assert store.exists("a")
        assert store.list_documents() == ["a", "b"]
        store.delete("a")
        assert not store.exists("a")
        with pytest.raises(StorageError):
            store.delete("a")

    def test_size_bytes(self):
        store = InMemoryStore()
        store.store(doc("a", E("r", text="hello")))
        assert store.size_bytes("a") == len(store.raw("a").encode())
        with pytest.raises(StorageError):
            store.size_bytes("ghost")

    def test_sizes_count_utf8_bytes(self):
        store = InMemoryStore()
        d = doc("a", E("r", E("n", text="São João")))
        size = store.store(d)
        assert size == len(store.raw("a").encode("utf-8")) == len(store.raw("a")) + 2
        assert store.size_bytes("a") == size
        store.load("a")
        assert store.stats.bytes_read == size

    def test_stats(self):
        store = InMemoryStore()
        d = make_people_doc()
        store.store(d)
        store.store(d)
        store.load("d1")
        assert store.stats.stores == 2
        assert store.stats.loads == 1
        assert store.stats.per_document_stores["d1"] == 2
        assert store.stats.bytes_written > 0

    def test_loaded_copies_are_independent(self):
        store = InMemoryStore()
        store.store(make_people_doc())
        c1 = store.load("d1")
        c2 = store.load("d1")
        c1.root.children[0].child("name").set_text("Mutated")
        assert c2.root.children[0].child("name").text == "Carlos"


class TestFileStore:
    def test_roundtrip(self, tmp_path):
        store = FileStore(str(tmp_path))
        d = make_people_doc()
        store.store(d)
        loaded = store.load("d1")
        assert serialize_document(loaded) == serialize_document(d)

    def test_fragment_names_sanitized(self, tmp_path):
        store = FileStore(str(tmp_path))
        store.store(doc("xmark#2", E("site")))
        assert store.exists("xmark#2")
        assert store.load("xmark#2").root.tag == "site"

    def test_missing_operations_raise(self, tmp_path):
        store = FileStore(str(tmp_path))
        with pytest.raises(StorageError):
            store.load("nope")
        with pytest.raises(StorageError):
            store.delete("nope")
        with pytest.raises(StorageError):
            store.size_bytes("nope")

    def test_delete(self, tmp_path):
        store = FileStore(str(tmp_path))
        store.store(doc("a", E("r")))
        store.delete("a")
        assert not store.exists("a")

    def test_size_bytes_positive(self, tmp_path):
        store = FileStore(str(tmp_path))
        store.store(doc("a", E("r", text="x" * 100)))
        assert store.size_bytes("a") > 100


class TestDataManager:
    def make(self):
        store = InMemoryStore()
        store.store(make_people_doc())
        return DataManager(store), store

    def test_load_parses_once(self):
        dm, _ = self.make()
        d1, parsed = dm.load("d1")
        assert parsed > 0
        again, parsed2 = dm.load("d1")
        assert again is d1
        assert parsed2 == 0  # already live

    def test_document_requires_load(self):
        dm, _ = self.make()
        with pytest.raises(StorageError):
            dm.document("d1")
        dm.load("d1")
        assert dm.document("d1").name == "d1"

    def test_persist_writes_back_changes(self):
        dm, store = self.make()
        d, _ = dm.load("d1")
        apply_update(ChangeOp("/people/person[id=1]/name", "Renamed"), d)
        written = dm.persist("d1")
        assert written > 0
        assert "Renamed" in store.raw("d1")

    def test_persist_many(self):
        dm, store = self.make()
        store.store(doc("d9", E("r")))
        dm.load("d1")
        dm.load("d9")
        assert dm.persist_many(["d1", "d9"]) > 0

    def test_install_and_evict(self):
        dm, store = self.make()
        dm.install(doc("new", E("r")))
        assert store.exists("new")
        assert dm.is_loaded("new")
        with pytest.raises(StorageError):
            dm.install(doc("new", E("r")))
        dm.evict("new")
        assert not dm.is_loaded("new")
        assert dm.live_documents() == []
