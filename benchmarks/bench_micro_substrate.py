"""Micro-benchmarks of the substrates: parser, XPath, DataGuide, lock table.

These are conventional pytest-benchmark timings (many rounds) — they guard
the constant factors the figure experiments stand on.
"""

import itertools

import pytest

from repro import TxId
from repro.dataguide import DataGuide
from repro.deadlock import WaitForGraph
from repro.locking import XDGL_MATRIX, LockMode, LockTable
from repro.storage import InMemoryStore
from repro.update import ChangeOp, InsertOp, apply_update
from repro.workload import generate_xmark
from repro.xml import parse_document, serialize_document
from repro.xpath import evaluate

DOC_BYTES = 60_000


@pytest.fixture(scope="module")
def xmark_doc():
    doc, _ = generate_xmark(DOC_BYTES)
    return doc


@pytest.fixture(scope="module")
def xmark_text(xmark_doc):
    return serialize_document(xmark_doc)


def test_bench_parse_document(benchmark, xmark_text):
    doc = benchmark(parse_document, xmark_text)
    assert doc.root.tag == "site"


def test_bench_serialize_document(benchmark, xmark_doc):
    # Cold: each round serializes a fresh clone, which carries no memos.
    text = benchmark.pedantic(
        serialize_document, setup=lambda: ((xmark_doc.clone(),), {}), rounds=30
    )
    assert text == serialize_document(xmark_doc.clone())


def test_bench_persist_after_leaf_change(benchmark, xmark_doc):
    # The steady state of a commit: one leaf changed, then the fragment
    # persisted. Only the root-to-leaf path is rendered again.
    doc = xmark_doc.clone()
    store = InMemoryStore()
    store.store(doc)
    values = itertools.count()

    def change_and_store():
        apply_update(ChangeOp("/site/people/person[1]/name", f"n{next(values)}"), doc)
        return store.store(doc)

    size = benchmark(change_and_store)
    assert size == len(store.raw(doc.name).encode("utf-8"))
    assert store.raw(doc.name) == serialize_document(doc.clone())


def test_bench_xpath_child_steps(benchmark, xmark_doc):
    result = benchmark(evaluate, "/site/people/person/name", xmark_doc)
    assert result


def test_bench_xpath_descendant_with_predicate(benchmark, xmark_doc):
    result = benchmark(evaluate, "//closed_auction[price>=50]", xmark_doc)
    assert isinstance(result, list)


def test_bench_dataguide_build(benchmark, xmark_doc):
    guide = benchmark(DataGuide.build, xmark_doc)
    # The whole point of XDGL: the guide is tiny relative to the data.
    assert guide.node_count() < len(xmark_doc) / 10


def test_bench_dataguide_incremental_insert(benchmark, xmark_doc):
    guide = DataGuide.build(xmark_doc)
    op = InsertOp("<person id='bench'><name>B</name></person>", "/site/people")

    def insert_and_sync():
        changes = apply_update(op, xmark_doc)
        for c in changes:
            guide.apply_change(c)
        for c in reversed(changes):
            guide.undo_change(c)
        for c in changes:
            c.node.detach()

    benchmark(insert_and_sync)


def test_bench_lock_table_acquire_release(benchmark):
    table = LockTable(XDGL_MATRIX)
    keys = [("d", ("site", "people", "person", str(i))) for i in range(64)]

    def cycle():
        for i, key in enumerate(keys):
            table.try_acquire(key, "tx", LockMode.ST if i % 2 else LockMode.IS)
        table.release_transaction("tx")

    benchmark(cycle)
    assert table.is_empty()


def test_bench_wfg_cycle_detection(benchmark):
    g = WaitForGraph()
    n = 200
    for i in range(n - 1):
        g.add_edge(f"t{i}", f"t{i + 1}")
    g.add_edge(f"t{n - 1}", "t0")  # one big cycle

    cycle = benchmark(g.find_any_cycle)
    assert cycle is not None and len(cycle) == n


def test_bench_wfg_churn(benchmark):
    # The contended lock path: a transaction blocks behind two holders while
    # two others queue behind it, is granted its locks, then finishes. With
    # ~200 transactions already waiting, each step should cost O(degree).
    holders = [TxId("s1", i, float(i)) for i in range(16)]
    waiters = [TxId("s2", j, 100.0 + j) for j in range(200)]
    g = WaitForGraph()
    for j, w in enumerate(waiters):
        g.add_edge(w, holders[j % 16])
        g.add_edge(w, holders[(j + 1) % 16])
    start = set(g.edges())
    tx = TxId("s3", 0, 1000.0)

    def churn():
        for h in holders[:2]:
            g.add_edge(tx, h)
        for w in waiters[:2]:
            g.add_edge(w, tx)
        cycle = g.find_cycle_from(tx)
        g.clear_waits(tx)
        g.remove_node(tx)
        return cycle

    assert benchmark(churn) is None
    assert set(g.edges()) == start
    g.check_consistency()
