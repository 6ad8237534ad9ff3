"""Core grammar model: an expression algebra over terminals, nonterminals and
built-in values, plus the grammar container and its basic analyses.

A grammar is an ordered list of production rules over ordered roots.  Several
rules may share a left-hand side (vertical style); a horizontal definition is
a single rule whose right-hand side is a Choice.  All values are immutable and
hashable; every operation in this package is a pure function over them.
Every node class declares its slots and `Production` is a slotted
dataclass, so neither carries an instance dict.  A grammar that `recover` or
`deserialize` reads holds one leaf object per name and per terminal text,
shared by all its occurrences (see `shared_leaf`).
The smart constructors of the composite nodes (`seq`, `choice`, `opt`,
`star`, `plus`, `sel`, `sepstar`, `sepplus`) and of rules (`p`) are
trusted: they fill the slots of a new object directly and run no dataclass
`__init__`.  `seq` and `choice` skip the shape check that calling
`Sequence` or `Choice` runs, since their flattening gives what it checks;
the other composite classes check nothing, and `p` keeps the one check of
`Production`, a non-empty lhs.  Every tree the node table rebuilds, every
tree the parser and the interchange reader build, and every rule they and
the transformation operators build come from them, so they are the one
place where interning would go.
A rhs node keeps its class mask and the names it uses, from one walk of it,
in a slot that is no field, the first time `rule_facts` is asked for them;
every grammar that holds the node reads them there.  Each grammar derives
its rule blocks when it is built, and its name index from its rules' names
the first time it is asked for; a grammar built by `Grammar.edit` carries
both from its parent.  The analyses read those facts instead of walking the
rules again.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import islice
from operator import attrgetter, is_, itemgetter
from typing import Callable, NamedTuple


class GrammarError(ValueError):
    """Raised when a grammar value would violate a structural invariant."""


# --------------------------------------------------------------------------
# Expression variants


class Expr:
    """Base class of all grammar expressions.  A node is immutable, so a copy
    of it is the node itself, and a pickle rebuilds it from its field values
    through its class, which checks them again and stores no `_facts`."""

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


@dataclass(frozen=True)
class Epsilon(Expr):
    """The empty string."""

    __slots__ = ()


@dataclass(frozen=True)
class Empty(Expr):
    """The empty language (no derivation at all)."""

    __slots__ = ()


@dataclass(frozen=True)
class Anything(Expr):
    """A wildcard standing for an arbitrary, unconstrained subtree."""

    __slots__ = ()


@dataclass(frozen=True)
class ValueStr(Expr):
    """Built-in string value; participates in signatures under the name 'str'."""

    __slots__ = ()


@dataclass(frozen=True)
class ValueInt(Expr):
    """Built-in integer value; participates in signatures under the name 'int'."""

    __slots__ = ()


@dataclass(frozen=True)
class Terminal(Expr):
    __slots__ = ("text",)

    text: str

    def __post_init__(self) -> None:
        if not self.text:
            raise GrammarError("terminal text must be non-empty")


@dataclass(frozen=True)
class Nonterminal(Expr):
    __slots__ = ("name",)

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise GrammarError("nonterminal name must be non-empty")


@dataclass(frozen=True)
class Selectable(Expr):
    """A named subexpression (a selector attached to a body)."""

    __slots__ = ("selector", "body", "_facts")

    selector: str
    body: Expr


@dataclass(frozen=True)
class Sequence(Expr):
    __slots__ = ("parts", "_facts")

    parts: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise GrammarError("a Sequence needs at least 2 parts; use seq()")
        if any(isinstance(p, Sequence) for p in self.parts):
            raise GrammarError("nested Sequence must be flattened; use seq()")


@dataclass(frozen=True)
class Choice(Expr):
    __slots__ = ("alternatives", "_facts")

    alternatives: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if len(self.alternatives) < 2:
            raise GrammarError("a Choice needs at least 2 alternatives; use choice()")
        if any(isinstance(a, Choice) for a in self.alternatives):
            raise GrammarError("nested Choice must be flattened; use choice()")


@dataclass(frozen=True)
class Optional(Expr):
    __slots__ = ("body", "_facts")

    body: Expr


@dataclass(frozen=True)
class Star(Expr):
    __slots__ = ("body", "_facts")

    body: Expr


@dataclass(frozen=True)
class Plus(Expr):
    __slots__ = ("body", "_facts")

    body: Expr


@dataclass(frozen=True)
class SepListStar(Expr):
    """Possibly empty separator list: items separated by a separator."""

    __slots__ = ("item", "separator", "_facts")

    item: Expr
    separator: Expr


@dataclass(frozen=True)
class SepListPlus(Expr):
    """Non-empty separator list: one or more items separated by a separator."""

    __slots__ = ("item", "separator", "_facts")

    item: Expr
    separator: Expr


EPSILON = Epsilon()
EMPTY = Empty()
ANYTHING = Anything()
VALUE_STR = ValueStr()
VALUE_INT = ValueInt()

#: Reserved names under which built-in values take part in recovery,
#: signatures and nominal mappings, and the reserved name of each value class.
VALUE_NAMES = {"str": VALUE_STR, "int": VALUE_INT}
VALUE_NAME_OF = {type(value): name for name, value in VALUE_NAMES.items()}


# --------------------------------------------------------------------------
# Smart constructors.  These produce the canonical form of an expression:
# sequences and choices are flattened, unit elements are dropped, and
# degenerate arities collapse (0-ary sequence is epsilon, 0-ary choice is the
# empty language, 1-ary either is the child itself).  Canonical forms make
# structural equality meaningful.  Every composite constructor fills the
# slots of a new node directly: the flattening of `seq` and `choice` already
# gives what `Sequence.__post_init__` and `Choice.__post_init__` check, and
# the other composite classes check nothing.

_new = object.__new__
_set_parts = Sequence.parts.__set__  # the slot setter, which frozen does not block
_set_alternatives = Choice.alternatives.__set__


def t(text: str) -> Terminal:
    return Terminal(text)


def n(name: str) -> Nonterminal:
    return Nonterminal(name)


def shared_leaf(leaves: dict, cls: type, text: str) -> Expr:
    """`cls(text)` for cls Terminal or Nonterminal, built once per table
    `leaves`: the trees of one call that keeps a table share their leaves."""
    key = (cls, text)
    leaf = leaves.get(key)
    if leaf is None:
        leaf = leaves[key] = cls(text)
    return leaf


def seq(*parts: Expr) -> Expr:
    flat: list[Expr] = []
    for part in parts:
        if isinstance(part, Sequence):
            flat.extend(part.parts)
        elif isinstance(part, Epsilon):
            continue  # epsilon is the unit of concatenation
        else:
            flat.append(part)
    if not flat:
        return EPSILON
    if len(flat) == 1:
        return flat[0]
    node = _new(Sequence)
    _set_parts(node, tuple(flat))
    return node


def choice(*alternatives: Expr) -> Expr:
    flat: list[Expr] = []
    for alt in alternatives:
        if isinstance(alt, Choice):
            flat.extend(alt.alternatives)
        elif isinstance(alt, Empty):
            continue  # the empty language is the unit of alternation
        else:
            flat.append(alt)
    if not flat:
        return EMPTY
    if len(flat) == 1:
        return flat[0]
    node = _new(Choice)
    _set_alternatives(node, tuple(flat))
    return node


def _trusted(cls: type) -> Callable[..., Expr]:
    """The trusted constructor of cls, a composite class of one or two
    fields that checks nothing: it fills the slots of a new node in field
    order."""
    first, *rest = [getattr(cls, f.name).__set__ for f in fields(cls)]
    if not rest:
        def build(value):
            node = _new(cls)
            first(node, value)
            return node
        return build
    (second,) = rest

    def build_two(a, b):
        node = _new(cls)
        first(node, a)
        second(node, b)
        return node
    return build_two


opt = _trusted(Optional)
star = _trusted(Star)
plus = _trusted(Plus)
sel = _trusted(Selectable)  # (selector, body)
sepstar = _trusted(SepListStar)  # (item, separator)
sepplus = _trusted(SepListPlus)


# --------------------------------------------------------------------------
# The node table: how each expression class is taken apart and put back
# together.  Generic tree walks go through `children`, and rewrites put a
# node back through `reassembled`, which keeps a node whose children all
# stay.  The two renderers (a table per class for their text) and structural
# matching's aligner walk through `children` too; footprints, whose meaning
# differs per class, keep their own dispatch.


class NodeKind(NamedTuple):
    child_fields: tuple[str, ...]  # in child order; () for a leaf
    variadic: bool                 # the one child field holds any number of children
    build: Callable[..., Expr]     # smart constructor: other fields, then children


NODE_TABLE: dict[type, NodeKind] = {
    Epsilon: NodeKind((), False, lambda: EPSILON),
    Empty: NodeKind((), False, lambda: EMPTY),
    Anything: NodeKind((), False, lambda: ANYTHING),
    ValueStr: NodeKind((), False, lambda: VALUE_STR),
    ValueInt: NodeKind((), False, lambda: VALUE_INT),
    Terminal: NodeKind((), False, Terminal),
    Nonterminal: NodeKind((), False, Nonterminal),
    Selectable: NodeKind(("body",), False, sel),
    Sequence: NodeKind(("parts",), True, seq),
    Choice: NodeKind(("alternatives",), True, choice),
    Optional: NodeKind(("body",), False, opt),
    Star: NodeKind(("body",), False, star),
    Plus: NodeKind(("body",), False, plus),
    SepListStar: NodeKind(("item", "separator"), False, sepstar),
    SepListPlus: NodeKind(("item", "separator"), False, sepplus),
}

# the unit element seq and choice drop from their children
UNIT = {Sequence: Epsilon, Choice: Empty}

# derived from NODE_TABLE for each composite class: getter, rebuilder, and
# the names of its other fields, in field order
_GET: dict[type, Callable[[Expr], tuple[Expr, ...]]] = {}
_PUT: dict[type, Callable[[Expr, list[Expr]], Expr]] = {}
_OTHER: dict[type, tuple[str, ...]] = {}


def _derive(cls: type, kind: NodeKind) -> None:
    get = attrgetter(*kind.child_fields)  # one field: its value; several: a tuple
    single = len(kind.child_fields) == 1 and not kind.variadic
    _GET[cls] = (lambda node: (get(node),)) if single else get
    other = _OTHER[cls] = tuple(f.name for f in fields(cls) if f.name not in kind.child_fields)
    build = kind.build
    _PUT[cls] = (lambda node, kids: build(*[getattr(node, f) for f in other], *kids)
                 ) if other else (lambda node, kids: build(*kids))


for _cls, _kind in NODE_TABLE.items():
    if _kind.child_fields:
        _derive(_cls, _kind)


def children(expr: Expr) -> tuple[Expr, ...]:
    """The direct subexpressions of expr, in order; () for a leaf."""
    get = _GET.get(type(expr))
    return get(expr) if get is not None else ()


def reassembled(node: Expr, old, kids) -> Expr:
    """node, whose children are `old`, with `kids` in their place: node itself
    when each kid is its old child object and none of `old` is the `UNIT` of
    node's class; else rebuilt by the smart constructors, which drop it."""
    if all(map(is_, kids, old)) and UNIT.get(type(node)) not in map(type, old):
        return node
    return _PUT[type(node)](node, kids)


def with_children(expr: Expr, kids) -> Expr:
    """expr with its children replaced by kids, through `reassembled`."""
    return reassembled(expr, children(expr), kids)


# --------------------------------------------------------------------------
# Class masks and used names.  The mask of an expression is an int: a bit
# per node class it holds, and two flags about how its nodes sit.  A phase
# that acts only on some classes reads a rule's mask to skip a rule it
# cannot change.  The walk that gives a mask also gives the names used.

CLASS_BIT: dict[type, int] = {cls: 1 << i for i, cls in enumerate(NODE_TABLE)}
# a unit child the smart constructors would drop (an epsilon part of a
# sequence, an empty alternative of a choice), which only the direct
# constructors build
UNIT_CHILD = 1 << len(NODE_TABLE)
NESTED_CHOICE = UNIT_CHILD << 1  # a choice directly under a composite


def class_bits(classes) -> int:
    """The bits of `classes` in a mask."""
    bits = 0
    for cls in classes:
        bits |= CLASS_BIT[cls]
    return bits


_COMPOSITE = class_bits(_GET)  # the classes that have children
_NAME_BIT = CLASS_BIT[Nonterminal]
_CHOICE_BIT = CLASS_BIT[Choice]
_UNIT_BIT = {cls: CLASS_BIT[unit] for cls, unit in UNIT.items()}


def rule_facts(expr: Expr) -> tuple[int, tuple[str, ...]]:
    """The mask of expr and the distinct nonterminal names it uses, in the
    order the walk meets them.  A leaf gives them directly.  A composite
    node gives them from one walk (`_walk_facts`) the first time they are
    asked of it, and stores them in its `_facts` slot, which is no field, so
    ==, hash, repr and fields() ignore it; the node is immutable, so they
    hold for as long as it lives, whichever grammars hold it."""
    facts = getattr(expr, "_facts", None)
    if facts is not None:
        return facts
    kind = type(expr)
    if kind not in _GET:
        return CLASS_BIT[kind], (expr.name,) if kind is Nonterminal else ()
    facts = _walk_facts(expr)
    object.__setattr__(expr, "_facts", facts)  # the slot, past the frozen guard
    return facts


def _walk_facts(expr: Expr) -> tuple[int, tuple[str, ...]]:
    """The facts of the composite node expr, from one walk of its composite
    nodes, each of which adds its children's bits and the flags they raise
    under it, and its nonterminal children's names."""
    mask = CLASS_BIT[type(expr)]
    names: dict[str, None] = {}  # in the order the walk meets them
    stack = [expr]
    while stack:
        node = stack.pop()
        kind = type(node)
        below = 0
        for kid in _GET[kind](node):
            bit = CLASS_BIT[type(kid)]
            below |= bit
            if bit & _COMPOSITE:
                stack.append(kid)
            elif bit == _NAME_BIT:
                names[kid.name] = None
        if below & _CHOICE_BIT:
            below |= NESTED_CHOICE
        if below & _UNIT_BIT.get(kind, 0):
            below |= UNIT_CHILD
        mask |= below
    return mask, tuple(names)


def used_names(expr: Expr) -> tuple[str, ...]:
    """The distinct nonterminal names in expr, in the order the walk meets
    them (see `rule_facts`)."""
    return rule_facts(expr)[1]


# --------------------------------------------------------------------------
# Productions and grammars


def _check_lhs(lhs: str) -> None:
    if not lhs:
        raise GrammarError("production left-hand side must be non-empty")


@dataclass(frozen=True, slots=True)
class Production:
    lhs: str
    rhs: Expr
    label: str | None = None

    def __post_init__(self) -> None:
        _check_lhs(self.lhs)


_set_lhs, _set_rhs, _set_label = (getattr(Production, f.name).__set__
                                  for f in fields(Production))


def p(lhs: str, rhs: Expr, label: str | None = None) -> Production:
    """The trusted constructor of rules: `Production`'s one check, then the
    slots of a new rule filled directly."""
    _check_lhs(lhs)
    rule = _new(Production)
    _set_lhs(rule, lhs)
    _set_rhs(rule, rhs)
    _set_label(rule, label)
    return rule


@dataclass(frozen=True)
class Grammar:
    """Ordered roots over ordered production rules.

    Besides its two fields a grammar keeps two facts about its rules, neither
    of them a field, so repr, ==, hash and fields() ignore them:
    - `blocks` maps each lhs to its rule positions, lhs in first-appearance
      order;
    - the name index `_users` maps each name used in a rhs to the tuple of
      the lhs of each rule that uses it, in no particular order; its keys
      are the used names.  Derived on first use from the names each rule's
      `rule_facts` give.

    A rule's class mask and used names are no fact of the grammar: they live
    on its rhs node (see `rule_facts`), so every grammar that holds a rhs
    object reads the one walk of it.  The constructor derives `blocks` from
    scratch, and the index when asked.  `edit` builds a grammar from its
    parent and carries both instead: `blocks` is shared by an edit that
    moves no rule (rules rewritten in place, or new roots), shifted past the
    splice of one that does (a rule appended, inserted or removed, one rule
    spliced into several), and derived again, as by the constructor, when a
    rewrite changes an lhs.  The index, when the parent has derived it, is
    updated from the names of the rules the edit removes and of those it
    adds; it holds left-hand sides, not positions, so a splice moves none of
    its entries, and a rule the splice puts back changes none."""

    roots: tuple[str, ...] = ()
    productions: tuple[Production, ...] = ()

    def __post_init__(self) -> None:
        rules = self.productions
        object.__setattr__(self, "blocks", _spliced({}, rules, 0, 0, len(rules)))
        self._check_roots()

    def _check_roots(self) -> None:
        for root in self.roots:
            if root not in self:
                raise GrammarError(f"declared root {root!r} is neither defined nor used")

    def __contains__(self, name: str) -> bool:  # whether name is defined or used
        return name in self.blocks or name in self._users

    @cached_property
    def _users(self) -> dict[str, tuple[str, ...]]:
        users: dict[str, list[str]] = {}
        for prod in self.productions:
            for name in rule_facts(prod.rhs)[1]:
                users.setdefault(name, []).append(prod.lhs)
        return {name: tuple(lhss) for name, lhss in users.items()}

    def users_of(self, name: str) -> tuple[str, ...]:
        """The lhs of each rule whose rhs uses `name`, in no particular order."""
        return self._users.get(name, ())

    @property
    def names(self) -> frozenset[str]:  # every defined or used nonterminal
        return frozenset(self._users).union(self.blocks)

    def rules_of(self, name: str) -> tuple[Production, ...]:
        return tuple(self.productions[i] for i in self.blocks.get(name, ()))

    def edit(self, replace: dict[int, Production] | None = None, at: int | None = None,
             removed: int = 0, insert: tuple[Production, ...] = (),
             roots=None) -> Grammar:
        """This grammar with the rules at the keys of `replace` rewritten in
        place (a rewrite that changes an lhs derives `blocks` again), then
        its rules [at, at + removed) replaced by `insert`, and with `roots`
        when given.  The facts are carried (see the class docstring); the
        roots are checked as by the constructor."""
        rules = list(self.productions)
        gone: list[Production] = []  # the rules the edit removes
        added = list((replace or {}).values())  # and those it adds
        for i, prod in (replace or {}).items():
            gone.append(rules[i])
            rules[i] = prod
        moved = any(old.lhs != new.lhs for old, new in zip(gone, added))  # an lhs changed
        blocks = self.blocks
        if at is not None:
            end = at + removed
            gone += rules[at:end]
            added += insert
            rules[at:end] = insert
            blocks = _spliced(blocks, rules, at, removed, len(insert))
        if moved:  # derived again, as by the constructor
            blocks = _spliced({}, rules, 0, 0, len(rules))
        child = object.__new__(Grammar)
        state = child.__dict__  # which holds the fields too, the class having no slots
        state.update(roots=self.roots if roots is None else tuple(roots),
                     productions=tuple(rules), blocks=blocks)
        if "_users" in self.__dict__:
            state["_users"] = _reindexed(self._users, gone, added)
        child._check_roots()
        return child


_first = itemgetter(0)  # a block's first position


def _spliced(blocks: dict[str, tuple[int, ...]], rules: list[Production], at: int,
             removed: int, added: int) -> dict[str, tuple[int, ...]]:
    """`blocks` after the rules [at, at + removed) were replaced by the
    `added` rules now at [at, at + added) of `rules`.  Blocks come in
    first-position order, so those from the first that starts at or after
    the end of the splice lie wholly after it: they are moved in one pass,
    and of the blocks before them only those that reach the splice, or gain
    one of its rules, are cut."""
    end, shift = at + removed, added - removed
    new: dict[str, list[int]] = {}
    for i in range(at, at + added):
        new.setdefault(rules[i].lhs, []).append(i)
    if not removed and at == len(rules) - added:  # appended: nothing shifts
        out = dict(blocks)
        for lhs, positions in new.items():
            out[lhs] = out.get(lhs, ()) + tuple(positions)
        return out
    values = list(blocks.values())
    after = bisect_left(values, end, key=_first)  # the index of the first block after it
    out = dict(islice(blocks.items(), after))
    ordered = True  # whether the blocks stay in first-position order as they are placed
    for lhs in [lhs for lhs, positions in out.items() if positions[-1] >= at or lhs in new]:
        old = out[lhs]
        positions = tuple([i if i < at else i + shift for i in old if i < at or i >= end])
        if lhs in new:
            positions = tuple(sorted(positions + tuple(new.pop(lhs))))
        if positions:
            out[lhs] = positions
            ordered = ordered and positions[0] == old[0]
        else:
            del out[lhs]
    if new:  # left-hand sides the grammar lacked come next
        last = next(reversed(out.values()))[0] if out else -1
        for lhs in [lhs for lhs in new if lhs not in blocks]:
            positions = out[lhs] = tuple(new.pop(lhs))
            ordered = ordered and positions[0] > last
    moved = islice(values, after, None)
    if shift:  # most blocks hold one or two rules: those are shifted without a loop
        moved = [(ps[0] + shift,) if len(ps) == 1 else (ps[0] + shift, ps[1] + shift)
                 if len(ps) == 2 else tuple([i + shift for i in ps]) for ps in moved]
    out.update(zip(islice(blocks, after, None), moved))
    for lhs, positions in new.items():  # blocks after the splice that gain rules
        out[lhs] = tuple(sorted(out[lhs] + tuple(positions)))
        ordered = False
    if ordered:
        return out
    return dict(sorted(out.items(), key=lambda item: item[1][0]))


def _reindexed(users: dict[str, tuple[str, ...]], gone: list[Production],
               added: list[Production]) -> dict[str, tuple[str, ...]]:
    """The name index `users` after the rules `gone` were removed and the
    rules `added` added, each read as its lhs and the names its rhs uses;
    `users` itself when no entry changes, as when every rule removed is
    added back."""
    delta: dict[tuple[str, str], int] = {}
    for sign, rules in ((-1, gone), (1, added)):
        for prod in rules:
            lhs = prod.lhs
            for name in rule_facts(prod.rhs)[1]:
                delta[name, lhs] = delta.get((name, lhs), 0) + sign
    out = None
    for (name, lhs), change in delta.items():
        if not change:
            continue
        if out is None:
            out = dict(users)
        lhss = list(out.get(name, ()))
        for _ in range(-change):
            lhss.remove(lhs)
        lhss += [lhs] * change
        if lhss:
            out[name] = tuple(lhss)
        else:
            del out[name]
    return users if out is None else out


@dataclass(frozen=True)
class Vocabulary:
    defined: frozenset[str]
    used: frozenset[str]
    terminals: frozenset[str]


# --------------------------------------------------------------------------
# Tree walks


def subterms(expr: Expr):
    """Yield expr and all its subexpressions, pre-order."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        get = _GET.get(type(node))
        if get is not None:
            stack.extend(reversed(get(node)))


def occurs(sub: Expr, expr: Expr) -> bool:
    """Whether `sub` is expr or one of its subexpressions.  Only nodes of
    sub's class are compared, and in no particular order."""
    cls = type(sub)
    stack = [expr]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is cls and node == sub:
            return True
        get = _GET.get(kind)
        if get is not None:
            stack.extend(get(node))
    return False


def rebuild(expr: Expr, fn) -> Expr:
    """Rebuild expr bottom-up, applying fn to every node after its children
    have been rebuilt, each through `reassembled`: fn may return epsilon/empty
    to delete a node and the surrounding structure renormalizes, and a
    subtree where fn hands back each node it gets comes back as itself."""
    get = _GET.get(type(expr))
    if get is not None:
        kids = get(expr)
        expr = reassembled(expr, kids, [rebuild(kid, fn) for kid in kids])
    return fn(expr)


def replace_subterm(expr: Expr, old: Expr, new: Expr) -> Expr:
    """Replace every occurrence of the whole subterm `old` with `new`,
    top-down (matched nodes are not descended into), through `reassembled`."""
    if type(expr) is type(old) and expr == old:
        return new
    kids = children(expr)
    if not kids:
        return expr
    return reassembled(expr, kids, [replace_subterm(kid, old, new) for kid in kids])


def rename_expr(expr: Expr, mapping: dict[str, str], leaves: dict | None = None) -> Expr:
    """Rename nonterminal occurrences according to mapping (values untouched).
    Each target name gets one leaf, from the `shared_leaf` table `leaves`
    (a fresh one when not given), so calls that pass one table share them."""
    if leaves is None:
        leaves = {}

    def step(node: Expr) -> Expr:
        if isinstance(node, Nonterminal) and node.name in mapping:
            return shared_leaf(leaves, Nonterminal, mapping[node.name])
        return node
    return rebuild(expr, step)


def names_in_order(g: Grammar, name_of=None) -> list[str]:
    """Left-hand sides in first-appearance order.  With `name_of`, each
    rule's lhs is followed by the names name_of gives to the subterms of its
    rhs (None for a subterm without one)."""
    if name_of is None:
        return list(g.blocks)
    seen: dict[str, None] = {}
    for prod in g.productions:
        seen.setdefault(prod.lhs)
        # updating a key keeps its first position
        seen.update(dict.fromkeys(filter(None, map(name_of, subterms(prod.rhs)))))
    return list(seen)


# --------------------------------------------------------------------------
# Analyses


def vocabulary(g: Grammar) -> Vocabulary:
    terminals = frozenset(sub.text for prod in g.productions for sub in subterms(prod.rhs)
                          if isinstance(sub, Terminal))
    return Vocabulary(frozenset(g.blocks), frozenset(g._users), terminals)


def tops(g: Grammar) -> set[str]:
    """Nonterminals defined in the grammar but never used: root candidates."""
    return set(g.blocks).difference(g._users)


def reachable(g: Grammar, from_names) -> set[str]:
    """Transitive closure of the nonterminal-use relation, including the
    starting names themselves."""
    result: set[str] = set()
    work = list(from_names)
    while work:
        name = work.pop()
        if name in result:
            continue
        result.add(name)
        for i in g.blocks.get(name, ()):
            for ref in rule_facts(g.productions[i].rhs)[1]:
                if ref not in result:
                    work.append(ref)
    return result


# --------------------------------------------------------------------------
# Rendering.  Two styles are used throughout the package: a compact EBNF-ish
# infix style for diagnostics, and a prefix term style for reports that lay
# one production against another.  Each style is a table per class, and each
# renderer walks a composite's children through `children`; a composite's
# other fields (a selector's name) come before its children in both styles.

# a leaf's text, as a format of the leaf
_INFIX_LEAVES = {Epsilon: "ε", Empty: "φ", Anything: "α", ValueStr: "str",
                 ValueInt: "int", Terminal: '"{0.text}"', Nonterminal: "{0.name}"}
_TERM_LEAVES = {**_INFIX_LEAVES, Epsilon: "epsilon", Empty: "empty", Anything: "any"}

# infix: class -> (open, separator, close, the precedence its children are
# written at, the precedence above which it is bracketed); the precedences
# are 0 choice, 1 sequence, 2 postfix operand
_INFIX = {
    Selectable: ("::", "", "", 2, 2),
    Sequence: ("", " ", "", 2, 1),
    Choice: ("", " | ", "", 1, 0),
    Optional: ("", "", "?", 2, 2),
    Star: ("", "", "*", 2, 2),
    Plus: ("", "", "+", 2, 2),
    SepListStar: ("{", " ", "}*", 2, 2),
    SepListPlus: ("{", " ", "}+", 2, 2),
}

# prefix: class -> the head before its bracketed arguments; a variadic
# node's children are one bracketed list
_TERM_HEADS = {Selectable: "sel", Sequence: "seq", Choice: "choice", Optional: "?",
               Star: "*", Plus: "+", SepListStar: "sepstar", SepListPlus: "sepplus"}


def _leaf(expr: Expr, texts: dict[type, str]) -> str:
    text = texts.get(type(expr))
    if text is None:
        raise TypeError(f"not an expression: {expr!r}")
    return text.format(expr)


def render_expr(expr: Expr) -> str:
    """Compact infix rendering (diagnostics only; see recovery.unparse for
    notation-faithful output)."""
    return _render(expr, 0)


def _render(expr: Expr, prec: int) -> str:
    kind = _INFIX.get(type(expr))
    if kind is None:
        return _leaf(expr, _INFIX_LEAVES)
    open_, separator, close, inner, level = kind
    kids = []
    for kid in children(expr):  # a loop, not a comprehension: one frame a level
        kids.append(_render(kid, inner))
    head = "".join([getattr(expr, f) for f in _OTHER[type(expr)]]) + open_
    text = head + separator.join(kids) + close
    return f"({text})" if prec > level else text


def render_term(expr: Expr) -> str:
    """Prefix term rendering, used by match reports."""
    head = _TERM_HEADS.get(type(expr))
    if head is None:
        return _leaf(expr, _TERM_LEAVES)
    kids = []
    for kid in children(expr):  # as in _render
        kids.append(render_term(kid))
    if NODE_TABLE[type(expr)].variadic:
        kids = [f"[{', '.join(kids)}]"]
    return f"{head}({', '.join([getattr(expr, f) for f in _OTHER[type(expr)]] + kids)})"


def render_production(prod: Production) -> str:
    label = prod.label or ""
    return f"p('{label}', {prod.lhs}, {render_term(prod.rhs)})"
