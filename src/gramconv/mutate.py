"""Grammar mutations: bulk changes whose effect depends on the grammar rather
than on operands, each returning a replayable trace of transformation steps.

Sixteen kinds are provided, from bulk removals (terminals, selectors, labels)
through naming and rooting discipline to the abstract-normal-form pipeline.
Replaying `MutationResult.trace` on the input grammar (transform.apply_script)
reproduces the output grammar exactly.  Kinds that drop information are marked
non-invertible; for the others, replaying the bidirectionalized trace in
reverse restores the input.

Abstract normal form (ANF) is the nine-condition shape consumed by the
convergence pipeline: no production labels, no selectors, no terminals, no
choice nested under another constructor, no horizontal rules, no separator
lists, no trivially defined nonterminals, no mixing of chain and non-chain
rules per nonterminal, and a call graph connected from the declared roots,
which are exactly the top (defined-but-unused) nonterminals.  For condition 8
a rule counts as a chain when its whole rhs is an atomic leaf: a nonterminal,
a built-in value, or one of epsilon/empty/any.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .grammar import (
    EPSILON,
    NESTED_CHOICE,
    UNIT_CHILD,
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
    children,
    class_bits,
    names_in_order,
    opt,
    reachable,
    rebuild,
    render_expr,
    rule_facts,
    seq,
    star,
    subterms,
    tops,
)
from .transform import (
    TransformError,
    TransformStep,
    apply_step,
    detect_yaccified,
    dnf,
    fresh_name,
    _sole_definition,
    _uses,
)


class MutationError(ValueError):
    pass


NAMING_CONVENTIONS = ("UPPER", "lower", "CamelCase", "dash-lower")


@dataclass
class Mutation:
    kind: str
    params: dict = field(default_factory=dict)


@dataclass
class MutationResult:
    grammar: Grammar
    trace: list[TransformStep]
    changed_count: int
    invertible: bool


class _Recorder:
    """Applies steps through the transform engine so the recorded trace is
    replayable by construction."""

    def __init__(self, g: Grammar) -> None:
        self.grammar = g
        self.trace: list[TransformStep] = []

    def do(self, op: str, **args) -> None:
        step = TransformStep(op, args)
        self.grammar = apply_step(self.grammar, step)
        self.trace.append(step)

    def rule(self, name: str, pos: int) -> Production:
        return self.grammar.productions[self.grammar.blocks[name][pos]]


def _until_still(rec: _Recorder, round_, what: str, cap) -> None:
    """Run round_(rec) until a round records no step; `what` did not
    converge if cap(g) rounds all record some, g the grammar it started
    from.  The cap is derived only once a round has recorded a step."""
    start, acted, rounds = rec.grammar, 0, None
    while True:
        before = len(rec.trace)
        round_(rec)
        if len(rec.trace) == before:
            return
        acted += 1
        rounds = rounds or cap(start)
        if acted == rounds:
            raise MutationError(f"{what} did not converge")


def _nodes(g: Grammar, positions, classes) -> int:
    """How many subterms of the right-hand sides of the rules at `positions`
    are of `classes`; a rule whose mask holds none of them is not walked."""
    bits = class_bits(classes)
    rules = g.productions
    return sum(isinstance(node, classes) for i in positions if rule_facts(rules[i].rhs)[0] & bits
               for node in subterms(rules[i].rhs))


# the atomic leaves: a rule whose whole rhs is one is a chain rule
_ATOMS = (Nonterminal, ValueStr, ValueInt, Epsilon, Empty, Anything)


def _is_chain_rhs(rhs: Expr) -> bool:
    return isinstance(rhs, _ATOMS)


def _is_trivial_rhs(rhs: Expr) -> bool:
    return isinstance(rhs, (Epsilon, Empty, Anything))


# --------------------------------------------------------------------------
# per-kind implementations


def _rewrite_rules(rec: _Recorder, rewrite, classes) -> None:
    """Rewrite every rule rhs with `rewrite` (rhs to rhs), one recorded step
    per changed rule.  `rewrite` builds through `grammar.reassembled` and acts
    only on nodes of `classes`, so it hands back the rule's own rhs exactly
    when it changes nothing, and a rule is skipped when its class mask, which
    its rhs node stores (`rule_facts`), holds none of them and no unit
    child.  The skip is exact: the rewrite hands back the rule's own rhs, so
    the rule would have recorded no step.  A set-node step moves no rule, so
    the blocks read at the start hold every rule's position throughout."""
    wanted = class_bits(classes) | UNIT_CHILD
    for name, positions in rec.grammar.blocks.items():
        for pos, i in enumerate(positions):
            prod = rec.grammar.productions[i]
            if not rule_facts(prod.rhs)[0] & wanted:
                continue
            new = rewrite(prod.rhs)
            if new is not prod.rhs:
                rec.do("set-node", lhs=name, pos=pos, path=[], expr=new,
                       previous=prod.rhs)


def _remove_terminals(rec: _Recorder, params: dict) -> None:
    _rewrite_rules(rec, lambda rhs: rebuild(
        rhs, lambda node: EPSILON if isinstance(node, Terminal) else node), (Terminal,))


def _remove_selectors(rec: _Recorder, params: dict) -> None:
    _rewrite_rules(rec, lambda rhs: rebuild(
        rhs, lambda node: node.body if isinstance(node, Selectable) else node), (Selectable,))


def _remove_labels(rec: _Recorder, params: dict) -> None:
    # a set-label step moves no rule, so the blocks read here hold every
    # rule's position throughout
    for name, positions in rec.grammar.blocks.items():
        for pos, i in enumerate(positions):
            label = rec.grammar.productions[i].label
            if label is not None:
                rec.do("set-label", lhs=name, pos=pos, label=None, previous=label)


_WORD = re.compile(r"[A-Z]+(?=[A-Z][a-z0-9])|[A-Z]?[a-z0-9]+|[A-Z]+")


def _words(name: str) -> list[str]:
    chunks = re.split(r"[-_]+", name)
    words: list[str] = []
    for chunk in chunks:
        words.extend(_WORD.findall(chunk))
    return words or [name]


def apply_convention(convention: str, name: str) -> str:
    if convention == "UPPER":
        return name.upper()
    if convention == "lower":
        return name.lower()
    if convention == "CamelCase":
        return "".join(word.capitalize() for word in _words(name))
    if convention == "dash-lower":
        return "-".join(word.lower() for word in _words(name))
    raise MutationError(f"unknown naming convention {convention!r}")


def _disciplined_rename(rec: _Recorder, params: dict) -> None:
    convention = params["convention"]
    names = names_in_order(
        rec.grammar, lambda sub: sub.name if isinstance(sub, Nonterminal) else None)
    targets = {name: apply_convention(convention, name) for name in names}
    by_target: dict[str, list[str]] = {}
    for name, target in targets.items():
        by_target.setdefault(target, []).append(name)
    for target, sources in by_target.items():
        if len(sources) > 1:
            raise MutationError(
                f"convention collision: {', '.join(sorted(sources))} all map to {target!r}")
        source = sources[0]
        if target != source and target in rec.grammar:
            raise MutationError(
                f"convention collision: {source!r} maps to existing name {target!r}")
        if target != source and target in VALUE_NAMES:
            raise MutationError(
                f"convention collision: {source!r} maps to reserved value name {target!r}")
    for name in names:
        if targets[name] != name:
            rec.do("rename", **{"from": name, "to": targets[name]})


def _reroot_to_top(rec: _Recorder, params: dict) -> None:
    # the roots become the tops whose rules use a nonterminal
    g = rec.grammar
    top_set = tops(g)
    roots = [name for name, positions in g.blocks.items() if name in top_set
             and any(rule_facts(g.productions[i].rhs)[1] for i in positions)]
    if tuple(roots) != g.roots:
        rec.do("set-roots", roots=roots, previous=list(g.roots))


def _eliminate_unreachable(rec: _Recorder, params: dict) -> None:
    g = rec.grammar
    keep = reachable(g, g.roots)
    for name in names_in_order(g):
        if name not in keep:
            rec.do("eliminate", name=name)


def _extract_subgrammar(rec: _Recorder, params: dict) -> None:
    roots = list(params["roots"])
    missing = [name for name in roots if name not in rec.grammar.blocks]
    if missing:
        raise MutationError(
            f"extract-subgrammar: undefined nonterminal(s) {', '.join(missing)}")
    for i, root in enumerate(roots):
        if roots.index(root) < i:
            raise MutationError(f"extract-subgrammar: duplicate root {root!r}")
    if tuple(roots) != rec.grammar.roots:
        rec.do("set-roots", roots=roots, previous=list(rec.grammar.roots))
    _eliminate_unreachable(rec, params)


def _hoist_top_selectors(rec: _Recorder, name: str) -> None:
    # an unlabeled rule whose whole rhs is a selectable is the same rule with
    # the selector as its label; putting it in that form keeps the
    # horizontal/vertical round trips exact
    for pos, prod in enumerate(rec.grammar.rules_of(name)):
        if prod.label is None and isinstance(prod.rhs, Selectable):
            rec.do("set-label", lhs=name, pos=pos, label=prod.rhs.selector,
                   previous=None)
            rec.do("set-node", lhs=name, pos=pos, path=[], expr=prod.rhs.body,
                   previous=prod.rhs)


def _vertical_round(rec: _Recorder) -> None:
    for name in names_in_order(rec.grammar):
        rules, positions = rec.grammar.productions, rec.grammar.blocks[name]
        if len(positions) == 1 and isinstance(rules[positions[0]].rhs, Choice):
            label = rules[positions[0]].label
            if label is not None:
                rec.do("set-label", lhs=name, pos=0, label=None, previous=label)
            rec.do("vertical", name=name)
        elif len(positions) > 1 and any(isinstance(rules[i].rhs, Choice) for i in positions):
            # several rules: split each choice rule in place, keeping the
            # other rule boundaries (and hence the trace invertible)
            _split_choice_rules(rec, name)


def _all_vertical(rec: _Recorder, params: dict) -> None:
    # labels cannot survive the split of their choice across several rules,
    # and an alternative wrapped in a selectable resurfaces as a label, so
    # iterate until no choice-shaped rhs is left; each round that acts splits
    # a choice at the top of a rule and makes none, so the choices bound the
    # rounds
    _until_still(rec, _vertical_round, "all-vertical",
                 lambda g: _nodes(g, range(len(g.productions)), (Choice,)) + 1)


def _split_choice_rules(rec: _Recorder, name: str) -> None:
    """Replace each choice-shaped rule of `name` by one rule per alternative,
    in place (labels are stripped first: they cannot survive the split).
    Choices are flattened, so the inserted alternatives need no visit."""
    pos = 0
    while pos < len(rec.grammar.blocks[name]):
        prod = rec.rule(name, pos)
        if isinstance(prod.rhs, Choice):
            if prod.label is not None:
                rec.do("set-label", lhs=name, pos=pos, label=None, previous=prod.label)
            first, *rest = prod.rhs.alternatives
            rec.do("set-node", lhs=name, pos=pos, path=[], expr=first,
                   previous=prod.rhs)
            for offset, alt in enumerate(rest, start=1):
                rec.do("insert-rule", lhs=name, pos=pos + offset, rhs=alt)
            pos += len(rest)
        pos += 1


def _all_horizontal(rec: _Recorder, params: dict) -> None:
    for name in names_in_order(rec.grammar):
        if len(rec.grammar.blocks[name]) <= 1:
            continue
        # nested choice rules would flatten into the merged one, and a bare
        # top-level selectable would resurface as a label, so normalize both
        # away first (splitting can expose new selectable rules, hence the
        # fixpoint); each round that acts removes a selectable or a choice
        # of the block, so their count bounds the rounds
        def unnest(rec: _Recorder) -> None:
            _hoist_top_selectors(rec, name)
            _split_choice_rules(rec, name)
        _until_still(rec, unnest, "all-horizontal",
                     lambda g: _nodes(g, g.blocks[name], (Selectable, Choice)) + 1)
        # an empty-language alternative would silently vanish in the merged
        # choice; dropping it as a recorded step keeps the trace invertible
        removed = 0
        for pos, prod in enumerate(rec.grammar.rules_of(name)):
            if isinstance(prod.rhs, Empty) and len(rec.grammar.blocks[name]) > 1:
                rec.do("remove-rule", lhs=name, pos=pos - removed, rhs=prod.rhs,
                       label=prod.label)
                removed += 1
        if len(rec.grammar.blocks[name]) > 1:
            rec.do("horizontal", name=name)


def _deepest(rhs: Expr, offender):
    """The first non-None offender(node) over the nodes of rhs in post-order,
    that is, deepest first."""
    for kid in children(rhs):
        found = _deepest(kid, offender)
        if found is not None:
            return found
    return offender(rhs)


def _nested_choice(node: Expr):
    """A choice child of a constructor other than sequence; sequence-over-
    choice nesting is handled by distribution instead."""
    if isinstance(node, (Sequence, Choice)):
        return None
    return next((kid for kid in children(node) if isinstance(kid, Choice)), None)


def _distribute_round(rec: _Recorder) -> None:
    # surface what distribution can surface, then fold the choices that sit
    # under repetitions (which no amount of distribution can reach)
    _rewrite_rules(rec, dnf, (Choice,))
    # each extract folds its offender in every rule, so re-read the rule; an
    # extract appends its rule, so the blocks read here hold every position
    # this round visits; a rule with no choice under a composite has no
    # offender
    for name, positions in rec.grammar.blocks.items():
        for i in positions:
            rhs = rec.grammar.productions[i].rhs
            if not rule_facts(rhs)[0] & NESTED_CHOICE:
                continue
            offender = _deepest(rhs, _nested_choice)
            if offender is not None:
                fresh = fresh_name(name, rec.grammar)
                rec.do("extract", name=fresh, expr=offender)


def _distribute_all(rec: _Recorder, params: dict) -> None:
    # the first round's dnf leaves every rule distributed, with no more distinct
    # choices under another constructor than the grammar has choices; each
    # later round that acts folds one of those away, so the choices bound the
    # rounds
    _until_still(rec, _distribute_round, "distribute-all",
                 lambda g: _nodes(g, range(len(g.productions)), (Choice,)) + 1)


def _potentially_horizontal_to_vertical(rec: _Recorder, params: dict) -> None:
    _distribute_all(rec, params)
    _all_vertical(rec, params)


def _deyaccify_all(rec: _Recorder, params: dict) -> None:
    for name in names_in_order(rec.grammar):
        found = detect_yaccified(rec.grammar, name)
        if found is not None:
            rec.do("deyaccify", name=name, style=found[0])


def _inline_target(rec: _Recorder, name: str) -> dict | None:
    """Recorded-operand args for inlining `name`, or None when not eligible."""
    try:
        at, body = _sole_definition(rec.grammar, name, "inline")
    except TransformError:
        return None
    return {"name": name, "body": body, "index": at}


def _remove_first_lazy(rec: _Recorder) -> None:
    g = rec.grammar
    for name in names_in_order(g):
        args = _inline_target(rec, name)
        if args is None:
            continue
        uses = [g.productions[i] for i in _uses(g, name)]
        chain_use = [prod for prod in uses if prod.rhs == Nonterminal(name)]
        if len(uses) == 1 and chain_use:
            rec.do("unchain", name=name, lhs=chain_use[0].lhs, body=args["body"],
                   index=args["index"])
            return
        if len(uses) == 1 or (uses and chain_use):
            rec.do("inline", **args)
            return


def _remove_lazy(rec: _Recorder, params: dict) -> None:
    # each unchain or inline drops a name, so the rounds are bounded
    _until_still(rec, _remove_first_lazy, "remove-lazy", lambda g: len(g.blocks) + 1)


def _encode_seplists(rec: _Recorder, params: dict) -> None:
    def desugar(node: Expr) -> Expr:
        if isinstance(node, SepListPlus):
            return seq(node.item, star(seq(node.separator, node.item)))
        if isinstance(node, SepListStar):
            return opt(seq(node.item, star(seq(node.separator, node.item))))
        return node
    _rewrite_rules(rec, lambda rhs: rebuild(rhs, desugar), (SepListStar, SepListPlus))


_GROUPY = (Sequence, Choice, SepListStar, SepListPlus)


def _grouped(node: Expr):
    """A composite child that a bracket-free postfix notation could not
    write under node without group brackets."""
    if isinstance(node, Sequence):
        return next((part for part in node.parts if isinstance(part, Choice)), None)
    if isinstance(node, (Optional, Star, Plus, SepListStar, SepListPlus)):
        return next((kid for kid in children(node) if isinstance(kid, _GROUPY)), None)
    return None


def _fold_groups(rec: _Recorder, params: dict) -> None:
    # offenders are found deepest first, so a fold leaves no offender in the
    # group it extracts, nor in the rules already scanned
    for name in names_in_order(rec.grammar):
        for pos in range(len(rec.grammar.blocks[name])):
            while True:
                offender = _deepest(rec.rule(name, pos).rhs, _grouped)
                if offender is None:
                    break
                fresh = fresh_name(name, rec.grammar)
                rec.do("extract", name=fresh, expr=offender)


def _inline_first_trivial(rec: _Recorder) -> None:
    g = rec.grammar  # the round ends at its one step
    for name, positions in g.blocks.items():
        if len(positions) == 1 and _is_trivial_rhs(g.productions[positions[0]].rhs):
            args = _inline_target(rec, name)
            if args is not None:
                rec.do("inline", **args)
                return


def _fix_chain_mixing(rec: _Recorder) -> None:
    # a scoped extract turns its rule into a chain rule and edits only the
    # block it folds in; the chain rules before it hold no composite body,
    # so one pass in block order extracts each non-chain rule in turn
    for name in names_in_order(rec.grammar):
        rules = rec.grammar.productions
        flags = [_is_chain_rhs(rules[i].rhs) for i in rec.grammar.blocks[name]]
        if all(flags) or not any(flags):
            continue
        for pos in range(len(flags)):
            body = rec.rule(name, pos).rhs
            if not _is_chain_rhs(body):
                fresh = fresh_name(name, rec.grammar)
                rec.do("extract", name=fresh, expr=body, scope=name)


def _closing_round(rec: _Recorder) -> None:
    # each inline drops a name, so the rounds are bounded
    _until_still(rec, _inline_first_trivial, "inline-trivial",
                 lambda g: len(g.blocks) + 1)
    _fix_chain_mixing(rec)
    _reroot_to_top(rec, {})
    _eliminate_unreachable(rec, {})


def _normalize_anf(rec: _Recorder, params: dict) -> None:
    _remove_labels(rec, params)
    _remove_selectors(rec, params)
    _remove_terminals(rec, params)
    _encode_seplists(rec, params)
    _distribute_all(rec, params)
    _all_vertical(rec, params)
    # the closing phases can expose one another's work (inlining a trivial
    # definition may create a chain rule; dropping a leafy root may orphan
    # rules), so run them to a fixpoint; no bound on its rounds is derived
    # from the grammar, and 16 is far above the two rounds it is seen to take
    _until_still(rec, _closing_round, "normalize-anf", lambda g: 16)


# kind -> (implementation, whether it discards information its trace cannot
# restore, required parameters)
_KINDS = {
    "remove-terminals": (_remove_terminals, True, ()),
    "remove-selectors": (_remove_selectors, True, ()),
    "remove-labels": (_remove_labels, True, ()),
    "disciplined-rename": (_disciplined_rename, False, ("convention",)),
    "reroot-to-top": (_reroot_to_top, False, ()),
    "eliminate-top": (_eliminate_unreachable, True, ()),
    "extract-subgrammar": (_extract_subgrammar, True, ("roots",)),
    "all-vertical": (_all_vertical, False, ()),
    "all-horizontal": (_all_horizontal, False, ()),
    "distribute-all": (_distribute_all, False, ()),
    "potentially-horizontal-to-vertical": (_potentially_horizontal_to_vertical, False, ()),
    "deyaccify-all": (_deyaccify_all, False, ()),
    "remove-lazy": (_remove_lazy, True, ()),
    "normalize-anf": (_normalize_anf, True, ()),
    "fold-groups": (_fold_groups, False, ()),
    "encode-seplists": (_encode_seplists, False, ()),
}
MUTATION_KINDS = tuple(_KINDS)


def mutate(g: Grammar, m: Mutation) -> MutationResult:
    if m.kind not in _KINDS:
        raise MutationError(f"unknown mutation kind {m.kind!r}")
    impl, lossy, wanted = _KINDS[m.kind]
    for key in wanted:
        if key not in m.params:
            raise MutationError(f"mutation {m.kind!r} requires parameter {key!r}")
    for key in m.params:
        if key not in wanted:
            raise MutationError(f"mutation {m.kind!r} takes no parameter {key!r}")
    if m.kind == "disciplined-rename" and m.params["convention"] not in NAMING_CONVENTIONS:
        raise MutationError(
            f"unknown naming convention {m.params['convention']!r}; "
            f"choose one of {', '.join(NAMING_CONVENTIONS)}")
    rec = _Recorder(g)
    impl(rec, dict(m.params))
    return MutationResult(rec.grammar, rec.trace, len(rec.trace), not lossy)


# --------------------------------------------------------------------------
# the ANF checker


@dataclass(frozen=True)
class AnfViolation:
    condition: int
    detail: str

    def __str__(self) -> str:
        return f"condition {self.condition}: {self.detail}"


# a rule whose mask holds none of these breaks none of conditions 2, 3, 4, 6
_WALKED = class_bits((Selectable, Terminal, SepListStar, SepListPlus)) | NESTED_CHOICE


def anf_check(g: Grammar) -> list[AnfViolation]:
    """All violated abstract-normal-form conditions (empty list means ANF),
    condition by condition.  A rule whose class mask, read from its rhs node
    (`rule_facts`), shows a selector, a terminal, a separator list or a
    choice under a composite is walked once by `subterms`, for conditions
    2, 3, 4 and 6, so each condition's violations come in the order a walk
    of its own would find them; no other rule can break them, and none is
    walked.  Condition 9 reads the names `reachable` finds from the roots."""
    out: list[AnfViolation] = []
    for prod in g.productions:
        if prod.label is not None:
            out.append(AnfViolation(1, f"rule {prod.lhs} carries label {prod.label!r}"))
        if isinstance(prod.rhs, Choice):
            out.append(AnfViolation(5, f"rule {prod.lhs} is horizontal"))
        if not rule_facts(prod.rhs)[0] & _WALKED:
            continue
        for sub in subterms(prod.rhs):
            kind = type(sub)
            if kind is Selectable:
                out.append(AnfViolation(
                    2, f"rule {prod.lhs} names a subexpression {sub.selector!r}"))
            elif kind is Terminal:
                out.append(AnfViolation(
                    3, f"rule {prod.lhs} contains terminal {sub.text!r}"))
            elif kind is SepListStar or kind is SepListPlus:
                out.append(AnfViolation(
                    6, f"rule {prod.lhs} contains a separator list"))
            for kid in children(sub):
                if type(kid) is Choice:
                    out.append(AnfViolation(
                        4, f"rule {prod.lhs} nests a choice under {kind.__name__.lower()}"))
    rules = g.productions
    for name, positions in g.blocks.items():
        if len(positions) == 1 and _is_trivial_rhs(rules[positions[0]].rhs):
            out.append(AnfViolation(
                7, f"{name} is trivially defined as {render_expr(rules[positions[0]].rhs)}"))
        flags = [_is_chain_rhs(rules[i].rhs) for i in positions]
        if any(flags) and not all(flags):
            out.append(AnfViolation(8, f"{name} mixes chain and non-chain rules"))
    top_set = tops(g)
    if top_set != set(g.roots):
        out.append(AnfViolation(
            9, f"top nonterminals {sorted(top_set)} differ from roots {sorted(g.roots)}"))
    else:
        loose = sorted(g.names - reachable(g, g.roots))
        if loose:
            out.append(AnfViolation(
                9, f"unreachable from the roots: {', '.join(loose)}"))
    # the walks above find several conditions at once; a stable sort lists
    # each condition's violations in the order they were found
    out.sort(key=lambda violation: violation.condition)
    return out
