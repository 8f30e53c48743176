"""Serialization of :mod:`repro.xml.model` trees back to XML text."""

from __future__ import annotations

from .model import Document, Element


def _escape_text(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attr(s: str) -> str:
    return _escape_text(s).replace('"', "&quot;")


def _serialize_compact(root: Element) -> str:
    """Compact serialization with an explicit stack, memoized per element.

    Every commit persists its fragment through here, so it avoids recursion
    and the per-node tuple copy of the public ``children`` property, and it
    reuses the ``_xml`` memo of each interior element whose subtree has not
    changed since it was last serialized: after a one-leaf update only the
    root-to-leaf path is rendered again. Leaves are not memoized; they are
    cheap to render and memoizing them would cost memory for every node.

    Items on the stack are elements still to open or ``(element, start)``
    pairs marking where that open element's output begins in ``out``. On
    closing, the element's parts are joined into its memo and collapse into
    a single part, so its parent's join reuses it.
    """
    out: list[str] = []
    append = out.append
    stack: list = [root]
    push = stack.append
    pop = stack.pop
    while stack:
        node = pop()
        if node.__class__ is tuple:
            node, start = node
            append(f"</{node.tag}>")
            xml = "".join(out[start:])
            del out[start:]
            append(xml)
            node._xml = xml
            continue
        xml = node._xml
        if xml is not None:
            append(xml)
            continue
        attrib = node.attrib
        if attrib:
            attrs = "".join(f' {k}="{_escape_attr(v)}"' for k, v in attrib.items())
        else:
            attrs = ""
        children = node._children
        text = node.text
        if not children:
            if text is None:
                append(f"<{node.tag}{attrs}/>")
            else:
                append(f"<{node.tag}{attrs}>{_escape_text(text)}</{node.tag}>")
            continue
        push((node, len(out)))
        append(f"<{node.tag}{attrs}>")
        if text is not None:
            append(_escape_text(text))
        for i in range(len(children) - 1, -1, -1):
            push(children[i])
    return "".join(out)


def serialize_element(elem: Element, indent: int | None = None, _depth: int = 0) -> str:
    """Serialize one element (and subtree).

    ``indent=None`` produces compact one-line output; an integer produces
    pretty-printed output with that many spaces per level. Pretty printing
    only reflows structure (never text content), so compact and pretty forms
    parse back to identical trees.
    """
    if indent is None:
        return _serialize_compact(elem)
    pad = " " * (indent * _depth)
    attrs = "".join(f' {k}="{_escape_attr(v)}"' for k, v in elem.attrib.items())
    open_tag = f"{pad}<{elem.tag}{attrs}"
    if not elem.children and elem.text is None:
        return open_tag + "/>"
    parts = [open_tag + ">"]
    if elem.text is not None:
        parts.append(_escape_text(elem.text))
    if elem.children:
        child_parts = [serialize_element(c, indent, _depth + 1) for c in elem.children]
        parts.append("\n" + "\n".join(child_parts) + "\n" + pad)
        parts.append(f"</{elem.tag}>")
    else:
        parts.append(f"</{elem.tag}>")
    return "".join(parts)


def serialize_document(doc: Document, indent: int | None = None, declaration: bool = False) -> str:
    """Serialize a whole document; optionally prepend an XML declaration."""
    if doc.root is None:
        raise ValueError(f"document {doc.name!r} has no root")
    body = serialize_element(doc.root, indent)
    if declaration:
        return '<?xml version="1.0" encoding="UTF-8"?>\n' + body
    return body
