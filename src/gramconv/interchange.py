"""JSON interchange format for grammars.

A document is one top-level object:

    {"roots": [names...],
     "productions": [{"label": string-or-null, "lhs": string, "rhs": expr}]}

and every expression is a tagged node: {"tag": "epsilon" | "empty" | "any" |
"valstr" | "valint" | "t" | "n" | "sel" | "seq" | "choice" | "opt" | "star" |
"plus" | "sepstar" | "sepplus", ...tag-specific fields}.  Serialization is
deterministic (UTF-8, two-space indent, fields in schema order), so committed
grammar files round-trip byte-identically.  `dumps` writes those bytes: it
lays out the containers itself, since any indent sends `json.dumps` to its
pure-Python encoder, encodes strings with the C string encoder and leaves
every other scalar to `json.dumps`.  It writes an expression straight from
its fields, as the tagged object `expr_to_json` would give, so `serialize`
walks each grammar once and builds no JSON tree of its expressions; it
writes a leaf's whole object, and each rule's object up to its rhs, as one
string.
`deserialize` builds the expressions in the parser's own pass: the
`json.loads` object hook turns each well-formed expression object into its
node as soon as the object closes, so the document's dict tree is never
walked again.  The hook dispatches on the tag.  It checks first that the
tag is a string: a dict or list tag cannot be hashed, and the hook must
hand such an object back for the checking walker to explain, not raise.
It then builds `n` and `t` from their leaf tables, `seq` and `choice`
from their list, and `star`, `plus` and `opt` from their body, and leaves
the rare tags to the generic per-field loop over `_DECODERS`.  The hook
never raises; if any part of its result is not a grammar, the text is read
again by `grammar_from_json`, the checking walker, which is the one source
of error texts.  The checking walker keeps its own stack: each object is
read by a generator that yields its child objects and is sent their nodes,
so it reads every depth `json.loads` reads, also on Python 3.12 and later,
where `json.loads` has a recursion limit of its own.  Each reader keeps its leaf tables for one call only, so
a grammar read holds one leaf object per name and per terminal text, and
no two reads share one.
"""

from __future__ import annotations

import json
from dataclasses import fields
from json.encoder import encode_basestring as _encode_str

from .grammar import (
    NODE_TABLE,
    VALUE_NAMES,
    Anything,
    Choice,
    Empty,
    Epsilon,
    Expr,
    Grammar,
    Nonterminal,
    Optional,
    Plus,
    Production,
    Selectable,
    SepListPlus,
    SepListStar,
    Sequence,
    Star,
    Terminal,
    ValueInt,
    ValueStr,
    choice,
    opt,
    p,
    plus,
    seq,
    shared_leaf,
    star,
)

# the expression tag of each class; a node's other JSON keys are its
# dataclass fields, in declaration order
_CLASS_OF_TAG = {
    "epsilon": Epsilon, "empty": Empty, "any": Anything, "valstr": ValueStr,
    "valint": ValueInt, "t": Terminal, "n": Nonterminal, "sel": Selectable,
    "seq": Sequence, "choice": Choice, "opt": Optional, "star": Star,
    "plus": Plus, "sepstar": SepListStar, "sepplus": SepListPlus,
}
_TAG_OF_CLASS = {cls: tag for tag, cls in _CLASS_OF_TAG.items()}
_LEAF_CLASS = {"t": Terminal, "n": Nonterminal}  # the leaves `shared_leaf` builds
_LISTED = {"seq": "parts", "choice": "alternatives"}  # tag -> its list field
_BODIED = {"star": star, "plus": plus, "opt": opt}  # tag -> the constructor of its one body
_FIELDS = {cls: tuple(f.name for f in fields(cls)) for cls in _TAG_OF_CLASS}
# the key texts `dumps` writes for each class: the tag entry, then each
# field's name with its encoded key
_KEYS = {cls: ('"tag": ' + _encode_str(tag),
               tuple((name, _encode_str(name) + ": ") for name in _FIELDS[cls]))
         for cls, tag in _TAG_OF_CLASS.items()}
# for each leaf class: its tag entry and comma, its one field's key, and that
# field's name
_LEAF_KEYS = {cls: (_KEYS[cls][0] + ",", _KEYS[cls][1][0][1], _KEYS[cls][1][0][0])
              for cls in _LEAF_CLASS.values()}


def _decoder(cls: type) -> tuple:
    """The smart constructor of cls and, for each of its fields in order,
    the field name and JSON kind: str for a plain value, dict for one
    child, list for a variadic one."""
    kind = NODE_TABLE[cls]
    child_kind = list if kind.variadic else dict
    return kind.build, tuple((name, child_kind if name in kind.child_fields else str)
                             for name in _FIELDS[cls])


# tag -> (builder, ((field name, JSON kind), ...))
_DECODERS = {tag: _decoder(cls) for tag, cls in _CLASS_OF_TAG.items()}


class InterchangeError(ValueError):
    """Malformed interchange document; carries the offending document path."""

    def __init__(self, path: str, reason: str) -> None:
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


def expr_to_json(expr: Expr) -> dict:
    tag = _TAG_OF_CLASS.get(type(expr))
    if tag is None:
        raise TypeError(f"not an expression: {expr!r}")
    doc = {"tag": tag}
    for name in _FIELDS[type(expr)]:
        value = getattr(expr, name)
        if isinstance(value, Expr):
            value = expr_to_json(value)
        elif isinstance(value, tuple):
            value = [expr_to_json(kid) for kid in value]
        doc[name] = value
    return doc


def production_to_json(prod: Production) -> dict:
    return {"label": prod.label, "lhs": prod.lhs, "rhs": expr_to_json(prod.rhs)}


def grammar_to_json(g: Grammar) -> dict:
    return {"roots": list(g.roots),
            "productions": [production_to_json(prod) for prod in g.productions]}


def dumps(doc) -> str:
    """What `json.dumps` writes for doc with a two-space indent and
    `ensure_ascii` off, and a newline, byte for byte, where each expression
    in doc stands for its `expr_to_json` object.  A circular document
    raises RecursionError, not ValueError."""
    out: list[str] = []
    _write(doc, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _write(value, newline: str, write) -> None:
    """Write the JSON text of value, whose first line is already written and
    whose later lines start with newline.  A leaf, all four lines of its
    object, is one write; any other expression writes its own lines and
    leaves each field's value to `_write`."""
    leaf = _LEAF_KEYS.get(type(value))
    if leaf is not None:
        head, key, field = leaf
        inner = newline + "  "
        write("{" + inner + head + inner + key + _encode_str(getattr(value, field))
              + newline + "}")
    elif type(value) is str:
        write(_encode_str(value))
    elif type(value) in _KEYS:  # an expression, as its expr_to_json object
        head, keys = _KEYS[type(value)]
        inner = newline + "  "
        write("{" + inner + head)
        for name, key in keys:
            write("," + inner + key)
            _write(getattr(value, name), inner, write)
        write(newline + "}")
    elif isinstance(value, dict) and value:
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            # json.dumps converts a key that is not a string, or rejects it
            text = _encode_str(key) if isinstance(key, str) else json.dumps({key: 0})[1:-4]
            write(sep + text + ": ")
            _write(item, inner, write)
            sep = "," + inner
        write(newline + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            write(sep)
            _write(item, inner, write)
            sep = "," + inner
        write(newline + "]")
    elif value is None:
        write("null")
    else:  # numbers, booleans, empty containers, str subclasses, errors
        write(json.dumps(value, ensure_ascii=False))


def serialize(g: Grammar) -> str:
    """`dumps(grammar_to_json(g))`.  Each rule's object, up to its rhs, is
    written as one string; a rule whose label is neither None nor a string,
    or whose lhs is not a string, is written by `_write` as a dict."""
    for prod in g.productions:
        if type(prod.rhs) not in _KEYS:
            raise TypeError(f"not an expression: {prod.rhs!r}")
    out = ['{\n  "roots": ']
    write = out.append
    _write(list(g.roots), "\n  ", write)
    sep = ',\n  "productions": [\n    '
    for prod in g.productions:
        label = prod.label
        if (label is None or type(label) is str) and type(prod.lhs) is str:
            write(sep + '{\n      "label": ' + ("null" if label is None else _encode_str(label))
                  + ',\n      "lhs": ' + _encode_str(prod.lhs) + ',\n      "rhs": ')
            _write(prod.rhs, "\n      ", write)
            write("\n    }")
        else:
            write(sep)
            _write({"label": label, "lhs": prod.lhs, "rhs": prod.rhs}, "\n    ", write)
        sep = ",\n    "
    write("\n  ]\n}\n" if g.productions else ',\n  "productions": []\n}\n')
    return "".join(out)


def _reserved(name: str, path: str) -> InterchangeError:
    return InterchangeError(path, f"{name!r} is the reserved name of a built-in value")


def _want(doc: dict, key: str, kind, path: str):
    if not isinstance(doc, dict):
        raise InterchangeError(path, f"expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise InterchangeError(path, f"missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise InterchangeError(f"{path}.{key}",
                               f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def expr_from_json(doc, path: str = "rhs") -> Expr:
    return _expr_from_json(doc, path, {})


def _expr_from_json(doc, path: str, leaves: dict) -> Expr:
    """`expr_from_json`, with its leaves from the `shared_leaf` table
    `leaves`.  Each object is read by a `_read` generator, and one stack of
    them stands for the recursion, so any depth `json.loads` gives is read."""
    stack = [_read(doc, path, leaves)]
    built = None
    while True:
        try:
            stack.append(_read(*stack[-1].send(built), leaves))
            built = None
        except StopIteration as done:  # the reader on top has built its node
            stack.pop()
            if not stack:
                return done.value
            built = done.value


def _shown(path) -> str:
    """The text of a path that `_read` hands down as `(parent, field,
    index)` links, the index None for a field that holds one object."""
    parts = []
    while type(path) is tuple:
        path, name, i = path
        parts.append(f".{name}" if i is None else f".{name}[{i}]")
    return path + "".join(reversed(parts))


def _read(doc, path, leaves: dict):
    """The reading of one expression object: it yields each child object
    with its path and is sent the child's node back, and it returns its own
    node, with its leaf looked up once the field has passed its type check.
    A child's path is a link to its parent's, spelt out by `_shown` only
    for an error, so a deep object costs no longer path text than a
    shallow one."""
    tag = doc.get("tag") if isinstance(doc, dict) else None
    if not isinstance(tag, str):
        tag = _want(doc, "tag", str, _shown(path))  # raises the object, field or type error
    decoder = _DECODERS.get(tag)
    if decoder is None:
        raise InterchangeError(_shown(path), f"unknown expression tag {tag!r}")
    build, spec = decoder
    values: list = []
    for name, kind in spec:
        value = doc.get(name)
        if not isinstance(value, kind):
            _want(doc, name, kind, _shown(path))  # raises the missing-field or type error
        if kind is str:
            values.append(value)
        elif kind is dict:
            values.append((yield value, (path, name, None)))
        else:
            for i, kid in enumerate(value):
                values.append((yield kid, (path, name, i)))
    if tag == "n" and values[0] in VALUE_NAMES:
        raise _reserved(values[0], _shown(path) + ".name")
    leaf = _LEAF_CLASS.get(tag)
    if leaf is not None:
        return shared_leaf(leaves, leaf, values[0])
    return build(*values)


def grammar_from_json(doc) -> Grammar:
    leaves: dict = {}  # one leaf per name and terminal text in the grammar
    return _grammar(doc, dict, lambda rhs, path: _expr_from_json(rhs, path, leaves))


def _grammar(doc, rhs_kind: type, read_rhs) -> Grammar:
    """The grammar of the document doc, whose rules' rhs values must be
    rhs_kind values; each is read by `read_rhs(value, path)`."""
    if not isinstance(doc, dict):
        raise InterchangeError("$", f"expected an object, got {type(doc).__name__}")
    roots = _want(doc, "roots", list, "$")
    seen: set = set()
    for i, root in enumerate(roots):
        if not isinstance(root, str):
            raise InterchangeError(f"$.roots[{i}]", "root names must be strings")
        if root in seen:
            raise InterchangeError(f"$.roots[{i}]", f"duplicate root {root!r}")
        seen.add(root)
    raw_prods = _want(doc, "productions", list, "$")
    productions = []
    for i, raw in enumerate(raw_prods):
        path = f"$.productions[{i}]"
        if not isinstance(raw, dict):
            raise InterchangeError(path, "expected an object")
        label = raw.get("label")
        if label is not None and not isinstance(label, str):
            raise InterchangeError(f"{path}.label", "label must be a string or null")
        lhs = _want(raw, "lhs", str, path)
        if lhs in VALUE_NAMES:
            raise _reserved(lhs, f"{path}.lhs")
        rhs = read_rhs(_want(raw, "rhs", rhs_kind, path), f"{path}.rhs")
        productions.append(p(lhs, rhs, label))
    return Grammar(tuple(roots), tuple(productions))


def _builder():
    """A `json.loads` object hook that returns each well-formed expression
    object as its node, built from its already built children, and every
    other object unchanged, dispatching on the tag as the module docstring
    says; its leaves come from one table per leaf tag, keyed by text.  It
    never raises: what it cannot build is left as a dict for the checking
    reader to explain."""
    leaves: dict = {"n": {}, "t": {}}

    def build(obj: dict):
        tag = obj.get("tag")
        if type(tag) is not str:
            return obj
        table = leaves.get(tag)
        if table is not None:
            text = obj.get("name" if tag == "n" else "text")
            if type(text) is not str:
                return obj
            leaf = table.get(text)
            if leaf is None:
                if not text or (tag == "n" and text in VALUE_NAMES):  # refused by the checks
                    return obj
                leaf = table[text] = _LEAF_CLASS[tag](text)
            return leaf
        field = _LISTED.get(tag)
        if field is not None:
            kids = obj.get(field)
            if type(kids) is not list:
                return obj
            for kid in kids:
                if not isinstance(kid, Expr):
                    return obj
            return seq(*kids) if tag == "seq" else choice(*kids)
        wrap = _BODIED.get(tag)
        if wrap is not None:
            body = obj.get("body")
            return wrap(body) if isinstance(body, Expr) else obj
        decoder = _DECODERS.get(tag)
        if decoder is None:
            return obj
        make, spec = decoder
        values: list = []
        for name, kind in spec:  # a plain string or one child: no rare tag has a list
            value = obj.get(name)
            if not (type(value) is str if kind is str else isinstance(value, Expr)):
                return obj
            values.append(value)
        return make(*values)

    return build


def deserialize(text: str) -> Grammar:
    """The grammar of an interchange document.  Its expressions are built
    while `json.loads` reads the text; if any part of the result is not a
    well-formed grammar, the text is read again by `grammar_from_json`,
    which raises the error that says what is wrong and where."""
    try:
        doc = json.loads(text, object_hook=_builder())
    except json.JSONDecodeError as exc:
        raise InterchangeError(f"line {exc.lineno}, column {exc.colno}", exc.msg) from exc
    except RecursionError:  # the hook's frames cost the parser a level or two
        return grammar_from_json(json.loads(text))
    try:
        return _grammar(doc, Expr, lambda rhs, path: rhs)
    except InterchangeError:
        return grammar_from_json(json.loads(text))
