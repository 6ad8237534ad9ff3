"""Programmable grammar transformation operators and their bidirectional
pairing.

The public operator suite: rename / extract / inline / chain / unchain /
vertical / horizontal / factor / distribute / deyaccify / yaccify.  Every
operator is a pure function Grammar -> Grammar that raises TransformError
when its applicability precondition fails.

A transformation script is a list of TransformStep records applied left to
right; on the first violated precondition the whole script fails atomically
(the error carries the untouched input grammar).  Each operator is one entry
of the registry `_OPS`, which apply_step, bidirectionalize and
step_from_json all read; a step whose arguments do not meet the entry's
spec fails like a violated precondition.  Scripts serialize to JSON as
[{"op": name, "args": {...}}, ...] with embedded expressions in the grammar
interchange encoding.

`bidirectionalize` pairs a step with its inverse.  Steps whose inverse
depends on the grammar (inline, unchain, distribute, deyaccify, and the
low-level editing steps) carry recorded operands — the body, style or
previous value captured when the step was built; without the recording such
a step cannot be inverted.  The inverse laws hold on each operator's
bidirectional domain: rule blocks of one nonterminal are adjacent; an
inlined definition is unlabeled, used at least once, and its body neither
occurs literally elsewhere nor fuses into the surrounding node (a sequence
spliced into a sequence, an epsilon vanishing from one); rules merged by
horizontal are unlabeled unless their label came from a selector; a choice
split by vertical carries no label of its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from .grammar import (
    EPSILON,
    VALUE_NAMES,
    Choice,
    Epsilon,
    Expr,
    Grammar,
    GrammarError,
    Nonterminal,
    Plus,
    Production,
    Selectable,
    Sequence,
    Star,
    children,
    choice,
    occurs,
    p,
    plus,
    reassembled,
    render_expr,
    rename_expr,
    replace_subterm,
    rule_facts,
    sel,
    seq,
    star,
    subterms,
    used_names,
)
from .interchange import expr_from_json, expr_to_json


class TransformError(ValueError):
    pass


@dataclass
class TransformStep:
    op: str
    args: dict = field(default_factory=dict)


@dataclass
class BidirectionalStep:
    forward: TransformStep
    backward: TransformStep


class ScriptError(TransformError):
    """A script step failed; the input grammar is carried along unmodified."""

    def __init__(self, index: int, step: TransformStep, reason: str, grammar: Grammar):
        super().__init__(f"step {index} ({step.op}): {reason}")
        self.index = index
        self.step = step
        self.reason = reason
        self.grammar = grammar


# --------------------------------------------------------------------------
# helpers


def _with_productions(g: Grammar, replace: dict[int, Production] | None = None,
                      at: int | None = None, removed: int = 0,
                      insert: tuple[Production, ...] = (), roots=None) -> Grammar:
    """g edited as `Grammar.edit` describes, which carries g's facts."""
    try:
        return g.edit(replace, at, removed, insert, roots)
    except GrammarError as exc:
        raise TransformError(str(exc)) from exc


def _without(g: Grammar, positions, replace: dict[int, Production] | None = None) -> Grammar:
    """g with `replace` applied (before the first of `positions`) and its
    rules at `positions` (ascending) dropped, in one splice from the first
    of them to the last that puts back the rules between them."""
    start, stop = positions[0], positions[-1] + 1
    dropped = set(positions)
    kept = tuple(g.productions[i] for i in range(start, stop) if i not in dropped)
    return _with_productions(g, replace, start, stop - start, kept)


def _rules_using(g: Grammar, names, scope: str | None = None):
    """Positions of the rules that may use every one of `names`: all rules
    of each lhs (`scope` only, when given) that the name index lists under
    every one of them; every rule (of `scope`) when `names` is empty."""
    if not names:
        return range(len(g.productions)) if scope is None else g.blocks.get(scope, ())
    users = [g.users_of(name) for name in names]
    lhss = (scope,) if scope is not None else dict.fromkeys(min(users, key=len))
    return [i for lhs in lhss if all(lhs in found for found in users)
            for i in g.blocks[lhs]]


def _uses(g: Grammar, name: str) -> list[int]:
    """The position of the rule holding each occurrence of `name` in a rhs,
    once per occurrence, read from the rules the name index lists."""
    me = Nonterminal(name)
    return [i for i in _rules_using(g, (name,)) for sub in subterms(g.productions[i].rhs)
            if sub == me]


def _replace_in_rules(g: Grammar, old: Expr, new: Expr,
                      scope: str | None = None) -> dict[int, Production]:
    """The rules of g (of `scope` only, when given) in which `old` occurs,
    each occurrence replaced by `new`, by position.  A rule whose mask lacks
    a bit of old's mask cannot hold it, and is not searched."""
    out = {}
    wanted, names = rule_facts(old)
    masks = g.masks
    for i in _rules_using(g, names, scope):
        prod = g.productions[i]
        if not wanted & ~masks[i] and occurs(old, prod.rhs):
            out[i] = p(prod.lhs, replace_subterm(prod.rhs, old, new), prod.label)
    return out


def _slot(g: Grammar, index: int | None, default: int, op: str) -> int:
    """The rule position `index` names, `default` when it is None."""
    if index is None:
        return default
    if index > len(g.productions):
        raise TransformError(f"{op}: the grammar has no slot #{index}")
    return index


def _unreserved(op: str, *names: str) -> None:
    """Refuse `names` for nonterminals a step creates when a built-in value
    owns one of them (the first in sorted order is named)."""
    if not VALUE_NAMES.keys().isdisjoint(names):
        raise TransformError(f"{op}: {min(VALUE_NAMES.keys() & names)!r} "
                             "is the reserved name of a built-in value")


def fresh_name(base: str, taken) -> str:
    """base + '_k' with the smallest k >= 1 that avoids a collision; `taken`
    holds the names in use (a grammar holds those it defines or uses)."""
    k = 1
    while f"{base}_{k}" in taken:
        k += 1
    return f"{base}_{k}"


# --------------------------------------------------------------------------
# renaming


def rename_nonterminal(g: Grammar, x: str, y: str) -> Grammar:
    """Replace every occurrence of nonterminal x (defining and applied) by y;
    roots follow."""
    if x not in g:
        raise TransformError(f"rename: nonterminal {x!r} does not occur")
    _unreserved("rename", y)
    if y in g:
        raise TransformError(f"rename: nonterminal {y!r} is already present")
    renamed = {}
    leaves: dict = {}  # one leaf for y in every rule
    for i in (*g.blocks.get(x, ()), *_rules_using(g, (x,))):
        prod = g.productions[i]
        renamed[i] = p(y if prod.lhs == x else prod.lhs,
                       rename_expr(prod.rhs, {x: y}, leaves), prod.label)
    return _with_productions(g, renamed, roots=[y if r == x else r for r in g.roots])


# --------------------------------------------------------------------------
# extract / inline


def extract(g: Grammar, name: str, expr: Expr, scope: str | None = None,
            index: int | None = None) -> Grammar:
    """Fold every occurrence of expr to the fresh nonterminal `name`, adding
    the defining rule name -> expr.  With `scope`, only rules of that
    nonterminal are rewritten.  Occurrences are whole-node structural matches.
    """
    _unreserved("extract", name)
    if name in g:
        raise TransformError(f"extract: {name!r} is not fresh")
    at = _slot(g, index, len(g.productions), "extract")
    hits = _replace_in_rules(g, expr, Nonterminal(name), scope)
    if not hits:
        where = f" in rules of {scope!r}" if scope else ""
        raise TransformError(f"extract: {render_expr(expr)} does not occur{where}")
    return _with_productions(g, hits, at, insert=(p(name, expr),))


def _sole_definition(g: Grammar, name: str, op: str) -> tuple[int, Expr]:
    """Position and body of the one rule defining `name`, which must be
    neither a root nor self-referential (the precondition of inlining)."""
    positions = g.blocks.get(name, ())
    if len(positions) != 1:
        raise TransformError(
            f"{op}: {name!r} must be defined by exactly one rule, has {len(positions)}")
    if name in g.roots:
        raise TransformError(f"{op}: {name!r} is a root")
    body = g.productions[positions[0]].rhs
    if name in used_names(body):
        raise TransformError(f"{op}: {name!r} is self-referential")
    return positions[0], body


def inline(g: Grammar, name: str) -> Grammar:
    """Substitute the sole definition of `name` for each of its uses and drop
    the defining rule."""
    at, body = _sole_definition(g, name, "inline")
    uses = _replace_in_rules(g, Nonterminal(name), body)
    return _with_productions(g, uses, at, removed=1)


# --------------------------------------------------------------------------
# chain / unchain


def chain(g: Grammar, production: Production, target: Expr | None = None,
          index: int | None = None) -> Grammar:
    """Given production a -> f with fresh nonterminal f, replace an existing
    rule a -> e by a -> f and add f -> e.  When a has several rules, `target`
    selects e explicitly."""
    if not isinstance(production.rhs, Nonterminal):
        raise TransformError("chain: the introduced rhs must be a bare nonterminal")
    fresh = production.rhs.name
    _unreserved("chain", fresh)
    if fresh in g:
        raise TransformError(f"chain: {fresh!r} is not fresh")
    lhs = production.lhs
    positions = g.blocks.get(lhs, ())
    if not positions:
        raise TransformError(f"chain: {lhs!r} is not defined")
    if target is None:
        if len(positions) != 1:
            raise TransformError(
                f"chain: {lhs!r} has {len(positions)} rules; pass the target rhs")
        at = positions[0]
    else:
        hits = [i for i in positions if g.productions[i].rhs == target]
        if not hits:
            raise TransformError(f"chain: no rule {lhs} -> {render_expr(target)}")
        at = hits[0]
    old = g.productions[at]
    return _with_productions(g, {at: p(lhs, Nonterminal(fresh), old.label)},
                             _slot(g, index, at + 1, "chain"),
                             insert=(p(fresh, old.rhs),))


def unchain(g: Grammar, name: str) -> Grammar:
    """Reverse a chain: `name` is defined once, used exactly once, and that
    use is the entire rhs of some rule."""
    at, body = _sole_definition(g, name, "unchain")
    uses = _uses(g, name)
    if len(uses) != 1:
        raise TransformError(f"unchain: {name!r} is used {len(uses)} times, not once")
    use = g.productions[uses[0]]
    if use.rhs != Nonterminal(name):
        raise TransformError(f"unchain: the use of {name!r} is not a whole rule body")
    return _with_productions(g, {uses[0]: p(use.lhs, body, use.label)}, at,
                             removed=1)


# --------------------------------------------------------------------------
# vertical / horizontal

# Labels and top-level selectors trade places across this pair: a labeled
# alternative p(l, a, e) becomes the selectable branch l::e of the merged
# choice, and vertical turns such branches back into labels.


def vertical(g: Grammar, name: str) -> Grammar:
    positions = g.blocks.get(name, ())
    if len(positions) != 1:
        raise TransformError(f"vertical: {name!r} must be defined by exactly one rule")
    at = positions[0]
    rhs = g.productions[at].rhs
    if not isinstance(rhs, Choice):
        raise TransformError(f"vertical: rhs of {name!r} is not a choice")
    pieces = []
    for alt in rhs.alternatives:
        if isinstance(alt, Selectable):
            pieces.append(p(name, alt.body, alt.selector))
        else:
            pieces.append(p(name, alt))
    return _with_productions(g, at=at, removed=1, insert=tuple(pieces))


def horizontal(g: Grammar, name: str) -> Grammar:
    positions = g.blocks.get(name, ())
    if len(positions) < 2:
        raise TransformError(f"horizontal: {name!r} must be defined by at least two rules")
    alts = []
    for i in positions:
        prod = g.productions[i]
        alts.append(sel(prod.label, prod.rhs) if prod.label else prod.rhs)
    return _without(g, positions[1:], {positions[0]: p(name, choice(*alts))})


# --------------------------------------------------------------------------
# factor / distribute

# the most alternatives one sequence may distribute into
DNF_MAX_ALTERNATIVES = 4096


def dnf(expr: Expr) -> Expr:
    """Fully distribute sequences over choices, everywhere in the tree; a
    subtree with nothing to distribute is kept as `reassembled` keeps it."""
    kids = children(expr)
    if not kids:
        return expr
    normal = [dnf(kid) for kid in kids]
    if type(expr) is Sequence and Choice in map(type, normal):
        factors = []
        total = 1
        for part in normal:
            alts = part.alternatives if isinstance(part, Choice) else (part,)
            total *= len(alts)
            if total > DNF_MAX_ALTERNATIVES:
                raise TransformError("distribute: expansion is too large")
            factors.append(alts)
        return choice(*(seq(*combo) for combo in itertools.product(*factors)))
    return reassembled(expr, kids, normal)


def factor(g: Grammar, name: str, from_expr: Expr, to_expr: Expr) -> Grammar:
    """Rewrite from_expr to to_expr inside the rules of `name`; the operands
    must be equivalent under distribution of sequence over choice."""
    if dnf(from_expr) != dnf(to_expr):
        raise TransformError("factor: operands are not equivalent by distribution")
    if name not in g.blocks:
        raise TransformError(f"factor: {name!r} is not defined")
    hits = _replace_in_rules(g, from_expr, to_expr, name)
    if not hits:
        raise TransformError(
            f"factor: {render_expr(from_expr)} does not occur in rules of {name!r}")
    return _with_productions(g, hits)


def distribute(g: Grammar, name: str) -> Grammar:
    """Surface the inner choices of `name`'s rules into top-level choices of
    choice-free sequences (pure distribution; choices under repetition stay)."""
    positions = g.blocks.get(name, ())
    if not positions:
        raise TransformError(f"distribute: {name!r} is not defined")
    out = {}
    for i in positions:
        prod = g.productions[i]
        expanded = dnf(prod.rhs)
        if expanded is not prod.rhs:
            out[i] = p(prod.lhs, expanded, prod.label)
    if not out:
        raise TransformError(f"distribute: no inner choice to surface in {name!r}")
    return _with_productions(g, out)


# --------------------------------------------------------------------------
# deyaccify / yaccify


def detect_yaccified(g: Grammar, name: str):
    """Return (style, base, step) when `name` is defined by a recursive
    base/step rule pair, else None.  style is 'left' or 'right' by the side
    the recursion sits on."""
    positions = g.blocks.get(name, ())
    if len(positions) != 2:
        return None
    me = Nonterminal(name)
    for base_at, rec_at in ((0, 1), (1, 0)):
        base = g.productions[positions[base_at]].rhs
        rec = g.productions[positions[rec_at]].rhs
        if name in used_names(base) or not isinstance(rec, Sequence):
            continue
        if sum(1 for sub in subterms(rec) if sub == me) != 1:
            continue
        if rec.parts[0] == me:
            return "left", base, seq(*rec.parts[1:])
        if rec.parts[-1] == me:
            return "right", base, seq(*rec.parts[:-1])
    return None


def deyaccify(g: Grammar, name: str, style: str | None = None) -> Grammar:
    """Replace an explicitly recursive base/step rule pair by iteration:
    {A -> B; A -> A B} becomes A -> B+, and with step C != B the pair becomes
    A -> B C* (left) or A -> C* B (right)."""
    found = detect_yaccified(g, name)
    if found is None:
        raise TransformError(f"deyaccify: {name!r} is not yaccified")
    detected, base, step = found
    if style is not None and style != detected:
        raise TransformError(
            f"deyaccify: {name!r} is {detected}-recursive, not {style}-recursive")
    if step == base:
        rhs: Expr = plus(base)
    elif detected == "left":
        rhs = seq(base, star(step))
    else:
        rhs = seq(star(step), base)
    positions = g.blocks[name]
    return _with_productions(g, {positions[0]: p(name, rhs)}, positions[1],
                             removed=1)


def yaccify(g: Grammar, name: str, style: str) -> Grammar:
    """Inverse of deyaccify: re-encode iteration as a recursive rule pair of
    the requested recursion style."""
    if style not in ("left", "right"):
        raise TransformError(f"yaccify: unknown style {style!r}")
    positions = g.blocks.get(name, ())
    if len(positions) != 1:
        raise TransformError(f"yaccify: {name!r} must be defined by exactly one rule")
    rhs = g.productions[positions[0]].rhs
    if name in used_names(rhs):
        raise TransformError(f"yaccify: {name!r} is already recursive")
    if isinstance(rhs, Plus):
        base: Expr = rhs.body
        step: Expr = rhs.body
    elif isinstance(rhs, Star):
        base = EPSILON
        step = rhs.body
    elif isinstance(rhs, Sequence) and style == "left" and isinstance(rhs.parts[-1], Star):
        base = seq(*rhs.parts[:-1])
        step = rhs.parts[-1].body
    elif isinstance(rhs, Sequence) and style == "right" and isinstance(rhs.parts[0], Star):
        base = seq(*rhs.parts[1:])
        step = rhs.parts[0].body
    else:
        raise TransformError(
            f"yaccify: rhs of {name!r} is not an iteration of the {style} shape")
    if isinstance(step, Epsilon):
        raise TransformError(f"yaccify: the repeated unit of {name!r} is empty")
    me = Nonterminal(name)
    rec = seq(me, step) if style == "left" else seq(step, me)
    return _with_productions(g, at=positions[0], removed=1,
                             insert=(p(name, base), p(name, rec)))


# --------------------------------------------------------------------------
# low-level editing steps (used by mutations and match traces)

def _replace_at_path(node: Expr, path: list[int], new: Expr) -> Expr:
    if not path:
        return new
    old = children(node)
    head = path[0]
    if head >= len(old):
        raise TransformError(f"set-node: path step {head} out of range")
    kids = old[:head] + (_replace_at_path(old[head], path[1:], new),) + old[head + 1:]
    return reassembled(node, old, kids)


def _locate(g: Grammar, lhs: str, pos: int) -> int:
    positions = g.blocks.get(lhs, ())
    if pos >= len(positions):
        raise TransformError(f"{lhs!r} has no rule #{pos}")
    return positions[pos]


def set_node(g: Grammar, lhs: str, pos: int, path: list[int], expr: Expr) -> Grammar:
    """Replace the subtree at `path` within rule `pos` of `lhs` (path [] is
    the whole rhs)."""
    at = _locate(g, lhs, pos)
    prod = g.productions[at]
    child = _with_productions(
        g, {at: p(lhs, _replace_at_path(prod.rhs, list(path), expr), prod.label)})
    _unreserved("set-node", *child.refs[at])  # the names of the rule it writes
    return child


def set_label(g: Grammar, lhs: str, pos: int, label: str | None) -> Grammar:
    at = _locate(g, lhs, pos)
    return _with_productions(g, {at: p(lhs, g.productions[at].rhs, label)})


def set_roots(g: Grammar, roots) -> Grammar:
    for i, root in enumerate(roots):
        if roots.index(root) < i:
            raise TransformError(f"set-roots: duplicate root {root!r}")
    return _with_productions(g, roots=roots)


def define(g: Grammar, name: str, rhs: Expr) -> Grammar:
    """Add the rule name -> rhs for a name that has no rule (one that is
    fresh or only used), which `eliminate` drops again."""
    _unreserved("define", name, *used_names(rhs))
    if name in g.blocks:
        raise TransformError(f"define: {name!r} is already defined")
    return _with_productions(g, at=len(g.productions), insert=(p(name, rhs),))


def eliminate(g: Grammar, name: str) -> Grammar:
    """Drop every rule of `name` (used for unreachable definitions)."""
    if name not in g.blocks:
        raise TransformError(f"eliminate: {name!r} is not defined")
    return _without(g, g.blocks[name])


def insert_rule(g: Grammar, lhs: str, pos: int, rhs: Expr,
                label: str | None = None) -> Grammar:
    """Insert a rule into the rule block of `lhs` at local position `pos`
    (appended to the block when pos equals the block size)."""
    _unreserved("insert-rule", lhs, *used_names(rhs))
    positions = g.blocks.get(lhs, ())
    if pos > len(positions):
        raise TransformError(f"insert-rule: {lhs!r} has no slot #{pos}")
    if positions:
        at = positions[pos] if pos < len(positions) else positions[-1] + 1
    else:
        at = len(g.productions)
    return _with_productions(g, at=at, insert=(p(lhs, rhs, label),))


def remove_rule(g: Grammar, lhs: str, pos: int, rhs: Expr | None = None) -> Grammar:
    """Remove the rule at local position `pos` of `lhs`; when `rhs` is given
    the removed rule must match it."""
    at = _locate(g, lhs, pos)
    if rhs is not None and g.productions[at].rhs != rhs:
        raise TransformError(f"remove-rule: rule #{pos} of {lhs!r} does not match")
    return _with_productions(g, at=at, removed=1)


def permute(g: Grammar, lhs: str, pos: int, order: list[int]) -> Grammar:
    """Reorder the sequence parts of a rule rhs; order[i] is the 1-based
    target position of part i."""
    at = _locate(g, lhs, pos)
    prod = g.productions[at]
    if not isinstance(prod.rhs, Sequence):
        raise TransformError(f"permute: rhs of {lhs!r} rule #{pos} is not a sequence")
    parts = prod.rhs.parts
    if sorted(order) != list(range(1, len(parts) + 1)):
        raise TransformError(f"permute: {order!r} is not a permutation of 1..{len(parts)}")
    new_parts: list[Expr | None] = [None] * len(parts)
    for i, target in enumerate(order):
        new_parts[target - 1] = parts[i]
    return _with_productions(g, {at: p(lhs, seq(*new_parts), prod.label)})


# --------------------------------------------------------------------------
# step records, scripts, bidirectionalization


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_index(value) -> bool:
    return _is_int(value) and value >= 0


def _is_name(value) -> bool:
    return isinstance(value, str) and value != ""


def _list_of(test):
    return lambda value: isinstance(value, list) and all(map(test, value))


# argument kind -> (test, description)
_KINDS = {
    "name": (_is_name, "a non-empty string"),
    "names": (_list_of(_is_name), "a list of non-empty strings"),
    "label": (lambda value: isinstance(value, str), "a string"),
    "style": (lambda value: value in ("left", "right"), "'left' or 'right'"),
    "index": (_is_index, "a non-negative integer"),
    "path": (_list_of(_is_index), "a list of non-negative integers"),
    "order": (_list_of(_is_int), "a list of integers"),
    "expr": (lambda value: isinstance(value, Expr), "an expression"),
}


class _Op:
    """A registry entry: the operator function, its argument spec (`key:kind`
    pairs, "?" marking an argument that may be absent or null; those before
    a "|" are passed to the function in order, those after it are recorded
    for the inverse only), and the builder mapping the step's arguments to
    its inverse's (op, arguments).  The builder reads the recorded operands
    it needs by key; None marks a step that drops what an inverse needs."""

    def __init__(self, fn: Callable[..., Grammar], spec: str,
                 inverse: Callable[[dict], tuple[str, dict]] | None) -> None:
        passed, _, recorded = spec.partition("|")
        self.fn = fn
        self.passed = tuple(item.split(":")[0] for item in passed.split())
        self.args = dict(item.split(":") for item in (passed + recorded).split())
        # (key, may be absent or null, test, description) of each argument
        self.checks = tuple((key, kind.endswith("?"), *_KINDS[kind.rstrip("?")])
                            for key, kind in self.args.items())
        self.inverse = inverse


def _present(args: dict, *keys: str) -> dict:
    return {key: args[key] for key in keys if args.get(key) is not None}


def _swap_previous(args: dict, key: str) -> dict:
    swapped = dict(args)
    swapped[key], swapped["previous"] = args["previous"], args.get(key)
    return swapped


_OPS: dict[str, _Op] = {
    "rename": _Op(rename_nonterminal, "from:name to:name",
                  lambda a: ("rename", {"from": a["to"], "to": a["from"]})),
    "extract": _Op(extract, "name:name expr:expr scope:name? index:index?",
                   lambda a: ("inline", {"name": a["name"]})),
    "inline": _Op(inline, "name:name | body:expr? index:index?", lambda a: (
        "extract", {"name": a["name"], "expr": a["body"], **_present(a, "index")})),
    "chain": _Op(lambda g, lhs, name, label, target, index: chain(
                     g, p(lhs, Nonterminal(name), label), target, index),
                 "lhs:name name:name label:label? target:expr? index:index?",
                 lambda a: ("unchain", {"name": a["name"]})),
    "unchain": _Op(unchain, "name:name | lhs:name? body:expr? index:index?", lambda a: (
        "chain", {"lhs": a["lhs"], "name": a["name"], "target": a["body"],
                  **_present(a, "index")})),
    "vertical": _Op(vertical, "name:name", lambda a: ("horizontal", {"name": a["name"]})),
    "horizontal": _Op(horizontal, "name:name", lambda a: ("vertical", {"name": a["name"]})),
    "factor": _Op(factor, "name:name from:expr to:expr", lambda a: (
        "factor", {"name": a["name"], "from": a["to"], "to": a["from"]})),
    "distribute": _Op(distribute, "name:name | before:expr?", lambda a: (
        "factor", {"name": a["name"], "from": dnf(a["before"]), "to": a["before"]})),
    "deyaccify": _Op(deyaccify, "name:name style:style?",
                     lambda a: ("yaccify", {"name": a["name"], "style": a["style"]})),
    "yaccify": _Op(yaccify, "name:name style:style",
                   lambda a: ("deyaccify", {"name": a["name"], "style": a["style"]})),
    "set-node": _Op(set_node, "lhs:name pos:index path:path expr:expr | previous:expr?",
                    lambda a: ("set-node", _swap_previous(a, "expr"))),
    "set-label": _Op(set_label, "lhs:name pos:index label:label? | previous:label?",
                     lambda a: ("set-label", _swap_previous(a, "label"))),
    "set-roots": _Op(set_roots, "roots:names | previous:names?",
                     lambda a: ("set-roots", _swap_previous(a, "roots"))),
    "define": _Op(define, "name:name rhs:expr",
                  lambda a: ("eliminate", {"name": a["name"]})),
    "eliminate": _Op(eliminate, "name:name", None),
    "insert-rule": _Op(insert_rule, "lhs:name pos:index rhs:expr label:label?", lambda a: (
        "remove-rule", {"lhs": a["lhs"], "pos": a["pos"], "rhs": a["rhs"]})),
    "remove-rule": _Op(remove_rule, "lhs:name pos:index rhs:expr? | label:label?",
                       lambda a: ("insert-rule", {"lhs": a["lhs"], "pos": a["pos"],
                                                  "rhs": a["rhs"], **_present(a, "label")})),
    # part i moved to position order[i], so the inverse sorts positions by order
    "permute": _Op(permute, "lhs:name pos:index order:order", lambda a: (
        "permute", {"lhs": a["lhs"], "pos": a["pos"], "order": sorted(
            range(1, len(a["order"]) + 1), key=lambda k: a["order"][k - 1])})),
}


def _checked(step: TransformStep) -> _Op:
    """The registry entry of the step's operator, once the step's arguments
    meet the entry's spec."""
    op = _OPS.get(step.op) if isinstance(step.op, str) else None
    if op is None:
        raise TransformError(f"unsupported operator {step.op!r}")
    for key, optional, test, what in op.checks:
        if key not in step.args and not optional:
            raise TransformError(f"{step.op}: missing argument {key!r}")
        value = step.args.get(key)
        if not (value is None and optional or test(value)):
            raise TransformError(
                f"{step.op}: argument {key!r} must be {what}, got {value!r}")
    for key in step.args:
        if key not in op.args:
            raise TransformError(f"{step.op}: unknown argument {key!r}")
    return op


def apply_step(g: Grammar, step: TransformStep) -> Grammar:
    op = _checked(step)
    return op.fn(g, *(step.args.get(key) for key in op.passed))


def apply_script(g: Grammar, steps) -> Grammar:
    """Left-to-right composition; fails atomically on the first violated
    precondition, reporting the 0-based step index."""
    current = g
    for index, step in enumerate(steps):
        try:
            current = apply_step(current, step)
        except ScriptError:
            raise
        except TransformError as exc:
            raise ScriptError(index, step, str(exc), g) from exc
    return current


def bidirectionalize(step: TransformStep) -> BidirectionalStep:
    """Pair a step with its inverse.  Grammar-dependent inverses need the
    recorded operands described in the module docstring."""
    op = _checked(step)
    if op.inverse is None:
        raise TransformError(f"cannot invert {step.op}: it drops rules it does not record")
    try:
        back_op, back_args = op.inverse(step.args)
    except KeyError as exc:
        raise TransformError(
            f"cannot invert {step.op} without the recorded {exc.args[0]!r}") from None
    back = TransformStep(back_op, back_args)
    _checked(back)  # a null recorded operand leaves the inverse malformed
    return BidirectionalStep(step, back)


# --------------------------------------------------------------------------
# script (de)serialization


def step_to_json(step: TransformStep) -> dict:
    args = {}
    for key, value in step.args.items():
        if isinstance(value, Expr):
            args[key] = expr_to_json(value)
        else:
            args[key] = value
    return {"op": step.op, "args": args}


def step_from_json(doc: dict) -> TransformStep:
    if not isinstance(doc, dict) or "op" not in doc:
        raise TransformError("script step must be an object with an 'op' field")
    raw_args = doc.get("args", {})
    if not isinstance(raw_args, dict):
        raise TransformError("step 'args' must be an object")
    op = _OPS.get(doc["op"]) if isinstance(doc["op"], str) else None
    kinds = op.args if op is not None else {}
    args = {}
    for key, value in raw_args.items():
        if kinds.get(key, "").startswith("expr") and isinstance(value, dict):
            args[key] = expr_from_json(value, f"args.{key}")
        else:
            args[key] = value
    return TransformStep(doc["op"], args)


def script_to_json(steps) -> list:
    return [step_to_json(step) for step in steps]


def script_from_json(doc) -> list[TransformStep]:
    if not isinstance(doc, list):
        raise TransformError("a script is a JSON list of steps")
    return [step_from_json(item) for item in doc]
