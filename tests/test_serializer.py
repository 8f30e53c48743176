"""The compact serializer's per-element memo.

Interior elements cache their compact serialized text; every tree mutation
clears the cache on the mutated node and its ancestors. These tests compare
the memoized serializer against a from-scratch reference after every step of
random update sequences, including rollbacks that re-attach removed and
moved subtrees.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.errors import UpdateError
from repro.update import (
    ChangeOp,
    InsertOp,
    RemoveOp,
    RenameOp,
    TransposeOp,
    UndoLog,
    apply_update,
)
from repro.xml import E, Element, doc, parse_document, serialize_document, serialize_element
from repro.xml.serializer import _escape_attr, _escape_text

from .conftest import example_budget


def reference_compact(root: Element) -> str:
    """The serializer without a memo: renders every node from scratch."""
    out: list[str] = []
    stack: list = [root]
    while stack:
        node = stack.pop()
        if node.__class__ is str:
            out.append(node)
            continue
        attrs = "".join(f' {k}="{_escape_attr(v)}"' for k, v in node.attrib.items())
        children = node._children
        if not children and node.text is None:
            out.append(f"<{node.tag}{attrs}/>")
            continue
        out.append(f"<{node.tag}{attrs}>")
        if node.text is not None:
            out.append(_escape_text(node.text))
        stack.append(f"</{node.tag}>")
        stack.extend(reversed(children))
    return "".join(out)


def assert_memos_exact(root: Element) -> None:
    """Every memo present in the tree equals its subtree's fresh rendering,
    and only interior elements carry one."""
    for node in root.iter_subtree():
        if node._xml is None:
            continue
        assert node._children, f"leaf <{node.tag}> carries a memo"
        assert node._xml == reference_compact(node)


def _base_doc():
    return doc(
        "lib",
        E(
            "lib",
            E(
                "shelf",
                E("book", E("title", text="t1"), E("price", text="5"), id="b1"),
                E("book", E("title", text="a & b"), id="b2"),
            ),
            E("shelf", E("book", E("title", text="t3"))),
            E("bin"),
        ),
    )


# The parser trims surrounding whitespace, so only inner spaces round-trip.
TEXTS = st.text(alphabet="ab<&>\" é", min_size=1, max_size=6).map(lambda s: s.strip() or "x")


@st.composite
def update_ops(draw):
    kind = draw(st.sampled_from(["insert", "remove", "rename", "change", "transpose"]))
    if kind == "insert":
        frag = draw(st.sampled_from(
            ["<book><title>new</title></book>", "<tag/>", "<note k='v'><x>1</x></note>"]
        ))
        target = draw(st.sampled_from(["/lib", "/lib/shelf", "//book", "/lib/bin", "//note"]))
        return InsertOp(frag, target)
    if kind == "remove":
        target = draw(st.sampled_from(
            ["/lib/shelf/book[1]", "//note", "//tag", "//price", "/lib/shelf[2]"]
        ))
        return RemoveOp(target)
    if kind == "rename":
        target = draw(st.sampled_from(["/lib/shelf", "//book/title", "/lib/bin", "//x"]))
        return RenameOp(target, draw(st.sampled_from(["row", "header", "zone"])))
    if kind == "change":
        target = draw(st.sampled_from(["//title", "//price", "/lib/shelf[1]", "//x", "/lib"]))
        return ChangeOp(target, draw(TEXTS))
    source = draw(st.sampled_from(["/lib/shelf[1]/book[1]", "//note", "//price", "/lib/bin"]))
    dest = draw(st.sampled_from(["/lib/shelf[2]", "/lib/bin", "/lib"]))
    return TransposeOp(source, dest)


# A step applies an update, or rolls back the newest n applied updates.
steps = st.lists(
    st.one_of(update_ops(), st.integers(min_value=1, max_value=4)),
    min_size=1,
    max_size=14,
)


class TestMemoAgainstReference:
    @given(steps)
    @settings(max_examples=example_budget(150), suppress_health_check=[HealthCheck.too_slow])
    def test_memoized_text_matches_fresh_rendering(self, plan):
        document = _base_doc()
        original = serialize_document(document)
        undo = UndoLog()
        per_op: list[int] = []
        for step in plan:
            if isinstance(step, int):
                for _ in range(min(step, len(per_op))):
                    undo.rollback_last(per_op.pop())
            else:
                before = len(undo)
                try:
                    changes = apply_update(step, document, undo)
                except UpdateError:
                    undo.rollback_last(len(undo) - before)
                    changes = []
                per_op.append(len(undo) - before)
                # Serialize detached subtrees too: their memos must stay
                # right when a rollback re-attaches them.
                for change in changes:
                    serialize_element(change.node)
            text = serialize_document(document)
            assert text == reference_compact(document.root)
            assert_memos_exact(document.root)
            assert serialize_document(parse_document(text)) == text
        undo.rollback()
        assert serialize_document(document) == original
        assert_memos_exact(document.root)

    @given(steps)
    @settings(max_examples=example_budget(60), suppress_health_check=[HealthCheck.too_slow])
    def test_clone_starts_without_memos(self, plan):
        document = _base_doc()
        for step in plan:
            if not isinstance(step, int):
                try:
                    apply_update(step, document)
                except UpdateError:
                    pass
        text = serialize_document(document)
        copy = document.clone()
        assert all(node._xml is None for node in copy.iter())
        assert serialize_document(copy) == text


class TestMemoMechanics:
    def test_leaf_change_rerenders_only_the_path(self):
        document = _base_doc()
        serialize_document(document)
        shelf1, shelf2, _ = document.root.children
        untouched = shelf1.children[1]
        kept = (shelf2._xml, untouched._xml)
        apply_update(ChangeOp("/lib/shelf[1]/book[1]/price", "6"), document)
        assert document.root._xml is None
        assert shelf1._xml is None and shelf1.children[0]._xml is None
        assert (shelf2._xml, untouched._xml) == kept
        text = serialize_document(document)
        assert "<price>6</price>" in text
        # The clean siblings' memo strings were reused, not re-rendered.
        assert shelf2._xml is kept[0] and untouched._xml is kept[1]

    def test_leaves_are_not_memoized(self):
        document = doc("d", E("a", E("b", text="x"), E("c")))
        serialize_document(document)
        assert document.root._xml is not None
        assert all(child._xml is None for child in document.root.children)

    def test_model_methods_invalidate(self):
        document = doc("d", E("a", E("b", E("c", text="x"))))
        b = document.root.children[0]
        c = b.children[0]
        serialize_document(document)
        c.set_text("y")
        assert serialize_document(document) == "<a><b><c>y</c></b></a>"
        b.rename("z")
        assert serialize_document(document) == "<a><z><c>y</c></z></a>"
        b.remove(c)
        assert serialize_document(document) == "<a><z/></a>"
        document.root.insert(0, c)
        assert serialize_document(document) == "<a><c>y</c><z/></a>"
