"""Guided grammar convergence.

Matching two grammars of the same intended language proceeds in four phases:
grammar-design mutation (deyaccification), normalization to abstract normal
form, nominal resolution of the two nonterminal vocabularies, and structural
matching of the production rules under the resolved name mapping.

Nominal resolution is driven by production signatures.  The footprint of a
name in an expression is the multiset of occurrence markers (1, ?, +, *) it
carries there; a production signature collects the non-empty footprints of
all names in a rule's right-hand side.  Two rules are strongly
prodsig-equivalent when their signatures admit a unique equal-footprint
bijection, and weakly so when uniqueness is dropped and + is conflated
with *.  Built-in values take part under the names "str" and "int" and are
only ever matched to values of the same kind.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .grammar import (
    Choice,
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
    VALUE_NAME_OF,
    VALUE_NAMES,
    children,
    render_expr,
    render_production,
)
from .interchange import production_to_json
from .mutate import Mutation, anf_check, mutate
from .transform import TransformStep, apply_script, step_to_json

VALUE_NAME_SET = frozenset(VALUE_NAMES)

_MARKER_ORDER = {"1": 0, "?": 1, "+": 2, "*": 3}


class ResolutionError(ValueError):
    pass


class ResolutionConflict(ResolutionError):
    """Conflicting name bindings were forced; carries the held pair that
    blocks the new one (a built-in value's own pair), then the new pair."""

    def __init__(self, bindings) -> None:
        shown = ", ".join(f"{a} -> {b}" for a, b in bindings)
        super().__init__(f"conflicting bindings: {shown}")
        self.bindings = tuple(bindings)


class ResolutionAmbiguity(ResolutionError):
    """Several maximal consistent mappings exist; carries the candidates."""

    def __init__(self, candidates) -> None:
        self.candidates = tuple(candidates)
        shown = "; ".join(
            "{" + ", ".join(f"{a} -> {b}" for a, b in sorted(cand.items())) + "}"
            for cand in self.candidates)
        super().__init__(f"ambiguous nominal resolution, candidates: {shown}")


class MatchError(ValueError):
    pass


# --------------------------------------------------------------------------
# footprints and signatures


@dataclass(frozen=True)
class Footprint:
    markers: tuple[str, ...]

    def __post_init__(self) -> None:  # hashed once, as the generated hash would
        object.__setattr__(self, "_hash", hash((self.markers,)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def of(markers) -> "Footprint":
        """The footprint of `markers` in any order: one shared instance per
        marker sequence while the bounded cache `_SHARED` holds it."""
        key = tuple(markers)
        found = _SHARED.get(key)
        if found is None:
            if len(_SHARED) >= _SHARED_MAX:
                _SHARED.clear()
            found = _SHARED[key] = Footprint(tuple(sorted(key, key=_MARKER_ORDER.__getitem__)))
        return found

    def union(self, other: "Footprint") -> "Footprint":
        return Footprint.of(self.markers + other.markers)

    def weak(self) -> "Footprint":
        # + sorts just before *, so reading it as * keeps the order
        if "+" not in self.markers:
            return self
        return Footprint.of(["*" if m == "+" else m for m in self.markers])

    def __bool__(self) -> bool:
        return bool(self.markers)

    def render(self) -> str:
        return "".join(self.markers)


# marker sequence -> its footprint, shared by every caller, which no caller
# can tell apart from its own: a footprint is an immutable value.  Emptied
# when it reaches _SHARED_MAX.
_SHARED: dict[tuple[str, ...], Footprint] = {}
_SHARED_MAX = 4096
_EMPTY_FP = Footprint.of(())


def _leaf_name(expr: Expr) -> str | None:
    if isinstance(expr, Nonterminal):
        return expr.name
    return VALUE_NAME_OF.get(type(expr))


# `_occurrences` reads a node by one lookup: "name", a value's name, a marker or a layout
_ROLE = {Nonterminal: "name", **VALUE_NAME_OF, Optional: "?", Star: "*", Plus: "+",
         Sequence: "seq", Selectable: "sel", Choice: "choice",
         SepListStar: "list", SepListPlus: "list"}
_UNARY_ROLES = frozenset(["?", "*", "+", "sel"])


def _unwrapped_leaf(expr: Expr) -> str | None:
    # peel unary wrappers; the outermost marker is the one that counts
    role = _ROLE.get(type(expr))
    while role in _UNARY_ROLES:
        expr = expr.body
        role = _ROLE.get(type(expr))
    return expr.name if role == "name" else role if role in VALUE_NAME_SET else None


def _occurrences(expr: Expr) -> dict[str, list[str]]:
    """Every name in expr, in first-occurrence order, with the markers of
    its footprint there (none for a name met only where nothing counts),
    from one pre-order pass over the subterms.  A node at a counted position
    (expr itself, a sequence part, a selectable body, a separator-list item)
    adds 1 for a bare name, or for ?/*/+ its marker to the leaf it wraps;
    nothing below a choice or a ?/*/+ counts."""
    markers: dict[str, list[str]] = {}
    stack = [(expr, True)]
    while stack:
        node, counted = stack.pop()
        role = _ROLE.get(type(node))
        if role == "name" or role in VALUE_NAME_SET:
            found = markers.setdefault(node.name if role == "name" else role, [])
            if counted:
                found.append("1")
        elif role == "seq":
            for part in reversed(node.parts):
                stack.append((part, counted))
        elif role == "sel":
            stack.append((node.body, counted))
        elif role == "list":
            stack += ((node.separator, False), (node.item, counted))
        elif role == "choice":
            for alternative in reversed(node.alternatives):
                stack.append((alternative, False))
        elif role is not None:  # ?, * or +: only unary wrappers stand
            # between it and its leaf, so the leaf keeps its first place
            leaf = _unwrapped_leaf(node.body) if counted else None
            if leaf is not None:
                markers.setdefault(leaf, []).append(role)
            stack.append((node.body, False))
    return markers


def _footprints(expr: Expr) -> dict[str, Footprint]:
    """Each name's non-empty footprint in expr, in first-occurrence order."""
    return {name: Footprint.of(found) for name, found in _occurrences(expr).items() if found}


def footprint(name: str, expr: Expr) -> Footprint:
    """Multiset of occurrence markers of `name` in `expr`: 1 for a bare
    occurrence, ?/+/* under the respective operator, unioned across sequence
    parts; occurrences under a choice do not count."""
    return _footprints(expr).get(name, _EMPTY_FP)


def prodsig(prod: Production) -> dict[str, Footprint]:
    """Production signature: name -> footprint, one entry per name with a
    non-empty footprint in the rule's rhs, in first-occurrence order."""
    return _footprints(prod.rhs)


def render_prodsig(sig: dict[str, Footprint]) -> str:
    entries = ", ".join(f"<{name}, {sig[name].render()}>" for name in sorted(sig))
    return "{" + entries + "}"


_Classes = dict[Footprint, tuple[str, ...]]


def _weak_and_strong(sig: dict[str, Footprint]) -> tuple[_Classes, _Classes | None]:
    """A signature's names grouped into classes at both strengths, from one
    pass, each class keyed by a footprint, in signature order: at weak
    strength the names of each weak footprint (+ read as *); at strong
    strength one name per footprint, or None when footprints repeat.  The
    classes' footprints, as a set, are the signature's key at that
    strength, which `_equiv` compares."""
    weak: _Classes = {}
    strong: _Classes = {}
    for name, fp in sig.items():
        key = fp.weak()
        weak[key] = weak.get(key, ()) + (name,)
        strong[fp] = (name,)
    return weak, strong if len(strong) == len(sig) else None


def _classes(sig: dict[str, Footprint], strength: str) -> _Classes | None:
    """A signature's classes at `strength`, as `_weak_and_strong` gives them."""
    weak, strong = _weak_and_strong(sig)
    return strong if strength == "strong" else weak


def _equiv(p: Production, q: Production, strength: str) -> bool:
    left, right = _classes(prodsig(p), strength), _classes(prodsig(q), strength)
    return None not in (left, right) and left.keys() == right.keys()


def strong_equiv(p: Production, q: Production) -> bool:
    """Unique equal-footprint bijection between the two signatures."""
    return _equiv(p, q, "strong")


def weak_equiv(p: Production, q: Production) -> bool:
    """Every signature entry has a counterpart with an equivalent footprint
    (+ conflated with *), in both directions."""
    return _equiv(p, q, "weak")


# --------------------------------------------------------------------------
# nominal resolution


@dataclass(frozen=True)
class NominalMapping:
    """Relation between two nonterminal vocabularies; None stands for the
    unmatched marker (rendered as "omega").

    A mapping made by nominal resolution also carries `indexes`, the
    `(master, servant)` signature indexes the resolution derived, so that
    structural matching of the same grammars reads its strengths from their
    strong keys without building them again.  It is not a field, so repr,
    == and hash ignore it; any other mapping carries None."""

    pairs: frozenset[tuple[str | None, str | None]]
    indexes = None

    def as_dict(self) -> dict[str, str]:
        return {a: b for a, b in self.pairs if a is not None and b is not None}


def pair_resolution(p: Production, q: Production, strength: str) -> list[NominalMapping]:
    """Candidate name relations induced by one production pair.  Strong
    pairs induce a single relation (signature composed with the inverse
    signature over equal footprints); weak pairs induce every maximal
    relation pairing names with equivalent footprints one-to-one, with
    unmatched names related to the omega marker.  Both come from
    `_class_relations`, over the two signatures' classes at `strength`."""
    if strength not in ("strong", "weak"):
        raise ResolutionError(f"unknown equivalence strength {strength!r}")
    sp, sq = prodsig(p), prodsig(q)
    classes_p, classes_q = _classes(sp, strength), _classes(sq, strength)
    if None in (classes_p, classes_q) or classes_p.keys() != classes_q.keys():
        raise ResolutionError(f"productions are not {strength}ly prodsig-equivalent")
    mappings = []
    for rel in _class_relations(classes_p, classes_q):
        left, right = {a for a, _ in rel}, {b for _, b in rel}
        mappings.append(NominalMapping(frozenset(rel).union(
            [(a, None) for a in sp if a not in left],
            [(None, b) for b in sq if b not in right])))
    return mappings


def _extends(fwd: dict[str, str], rev: dict[str, str], a: str, b: str) -> bool:
    """Whether the pair (a, b) extends the one-to-one partial map held as
    `fwd` and its inverse `rev`."""
    if a != b and (a in VALUE_NAME_SET or b in VALUE_NAME_SET):
        return False  # a value binds only to itself
    return fwd.get(a, b) == b and rev.get(b, a) == a


class _Binding:
    def __init__(self) -> None:
        self.fwd: dict[str, str] = {}
        self.rev: dict[str, str] = {}

    def admits(self, rel: _Relation) -> bool:
        """Whether a relation that binds on its own extends the binding: as
        a one-to-one partial map, it can clash only with pairs held here."""
        fwd, rev = self.fwd, self.rev
        return all(fwd.get(a, b) == b and rev.get(b, a) == a for a, b in rel)

    def bind(self, a: str, b: str) -> None:
        if not _extends(self.fwd, self.rev, a, b):
            held = ((a, self.fwd[a]) if a in self.fwd else (self.rev[b], b) if b in self.rev
                    else (a, a) if a in VALUE_NAME_SET else (b, b))
            raise ResolutionConflict([held, (a, b)])
        self.fwd[a] = b
        self.rev[b] = a


_Relation = tuple[tuple[str, str], ...]
_Option = tuple[int, _Relation]  # (master production, relation)
_VALUE_PINS = {name: name for name in VALUE_NAMES}


def _class_relations(left: _Classes, right: _Classes,
                     lhs: tuple[str, str] | None = None) -> list[tuple[tuple[str, str], ...]]:
    """The relations of two signatures equivalent at some strength, from
    their `_classes` at that strength, in the order of `left`'s classes,
    each as its sorted pairs without the omega entries for the names it
    leaves unpaired.  When every class holds one name on each side, the one
    relation pairs them; otherwise each class expands by permutations.
    Given the production pair's `lhs` pair, only the relations that extend
    it are built: a pinned name (a value, an lhs) pairs only with its
    partner or stays unpaired, so each class permutes the names its pins
    leave free, in the order that filtering the full expansion keeps."""
    fwd, rev = ({lhs[0]: lhs[1]}, {lhs[1]: lhs[0]}) if lhs else ({}, {})
    if lhs and not _extends(fwd, rev, *lhs):
        return []
    pairs = []
    for fp, lnames in left.items():
        rnames = right[fp]
        if len(lnames) != 1 or len(rnames) != 1:
            break
        pairs.append((lnames[0], rnames[0]))
    else:
        for a, b in pairs if lhs else ():
            if not _extends(fwd, rev, a, b):
                return []
        return [tuple(sorted(pairs))]
    pin_l, pin_r = ({**_VALUE_PINS, **fwd}, {**_VALUE_PINS, **rev}) if lhs else ({}, {})
    per_class: list[list[tuple[tuple[str, str], ...]]] = []
    for fp, lnames in left.items():
        rnames = right[fp]
        # the smaller side pairs all its names; a smaller right side's pairs are flipped
        flip = len(lnames) > len(rnames)
        short, long, pins, long_pins = ((rnames, lnames, pin_r, pin_l) if flip
                                        else (lnames, rnames, pin_l, pin_r))
        fixed = tuple((a, pins[a]) for a in short if a in pins)
        if any(b not in long for _, b in fixed):
            return []
        rest = [a for a in short if a not in pins]
        free = [b for b in long if b not in long_pins]
        found = [fixed + tuple(zip(rest, im)) for im in itertools.permutations(free, len(rest))]
        per_class.append([tuple((a, b) for b, a in rel) for rel in found] if flip else found)
    return [tuple(sorted(itertools.chain.from_iterable(combo)))
            for combo in itertools.product(*per_class)]


class _SignatureIndex:
    """The signature facts of one grammar's productions, from one
    `_occurrences` walk per rule: `sigs`, a signature per production;
    `names`, the grammar's names in first-occurrence order (each rule's lhs,
    then the names in its rhs, as `names_in_order(g, _leaf_name)` lists
    them); per production its weak `classes` and their footprints as a set,
    its `keys`; and its `strong_keys`, the footprints of its strong classes
    as a set, None where footprints repeat."""

    def __init__(self, g: Grammar) -> None:
        self.productions = g.productions
        self.sigs: list[dict[str, Footprint]] = []
        self.classes: list[_Classes] = []
        self.strong_keys: list[frozenset[Footprint] | None] = []
        names: dict[str, object] = {}
        for prod in g.productions:
            found = _occurrences(prod.rhs)
            names[prod.lhs] = None  # a key set again keeps its first place
            names.update(found)
            sig = {name: Footprint.of(markers) for name, markers in found.items() if markers}
            self.sigs.append(sig)
            weak, strong = _weak_and_strong(sig)
            self.classes.append(weak)
            self.strong_keys.append(None if strong is None else frozenset(strong))
        self.names = list(names)
        self.keys = [frozenset(classes) for classes in self.classes]

    def exact_targets(self) -> set[tuple[str, frozenset[tuple[str, Footprint]]]]:
        return {(prod.lhs, frozenset(sig.items()))
                for prod, sig in zip(self.productions, self.sigs)}


class _Resolution:
    """State of one nominal resolution: both grammars' signature indexes,
    the master productions of each weak key, and the one option table, which
    the search watches (`_complete_matchings`) and the greedy pass narrows
    together with its strong view (`strong_options`).
    A servant production's options are its `(master production, relation)`
    pairs: the weakly equivalent master productions in ascending order, each
    with the relations of `relations`, in their order, which
    `_class_relations` builds from the two productions' weak classes, as the
    indexes hold them, pinned by the lhs pair, so each binds on its own."""

    def __init__(self, master: Grammar, servant: Grammar) -> None:
        self.master = _SignatureIndex(master)
        self.servant = _SignatureIndex(servant)
        self.buckets: dict[frozenset[Footprint], list[int]] = {}
        for mi, key in enumerate(self.master.keys):
            self.buckets.setdefault(key, []).append(mi)

    def candidates(self, si: int) -> list[int]:
        """Master productions weakly equivalent to servant production `si`."""
        return self.buckets.get(self.servant.keys[si], [])

    def relations(self, si: int, mi: int) -> list[_Relation]:
        """The pair's weak `pair_resolution` relations that bind on their
        own, the lhs pair first and omega dropped."""
        lhs = (self.servant.productions[si].lhs, self.master.productions[mi].lhs)
        return [(lhs,) + pairs for pairs in
                _class_relations(self.servant.classes[si], self.master.classes[mi], lhs)]

    @cached_property
    def options(self) -> list[list[_Option]]:
        """The option table, indexed by servant production."""
        return [[(mi, rel) for mi in self.candidates(si) for rel in self.relations(si, mi)]
                for si in range(len(self.servant.productions))]

    def strong_options(self) -> list[list[_Option]]:
        """The options of strongly equivalent pairs, read from the option
        table: a strong pair is weakly equivalent with classes of equal
        sizes, and its one relation is the weak one that pairs equal
        footprints, under the same pins."""
        skeys, mkeys = self.servant.strong_keys, self.master.strong_keys
        ssigs, msigs = self.servant.sigs, self.master.sigs
        return [[(mi, rel) for mi, rel in row
                 if skeys[si] is not None and skeys[si] == mkeys[mi]
                 and all(ssigs[si][a] == msigs[mi][b] for a, b in rel[1:])]
                for si, row in enumerate(self.options)]


# Limits of the complete-matching search: expanded nodes, and distinct full
# bindings held before the search stops.  Hitting either leaves the
# candidate list incomplete, which the search reports as capped.
SEARCH_NODE_CAP = 30000
SEARCH_MAX_BINDINGS = 7


def nominal_resolution(master: Grammar, servant: Grammar) -> NominalMapping:
    """Infer the servant-to-master name mapping by pairing prodsig-equivalent
    productions.

    Seeded with the root-to-root pair, the complete consistent matchings
    are searched first: every servant production is paired injectively with
    a weakly equivalent master production.  The option table is built from
    pinned weak classes, so every relation in it binds on its own.  An
    option is live while its master production is free and its relation
    agrees with the binding; each option is watched by the names it pairs
    and by its master production.  Each node expands
    the open production with the fewest live options (the lowest index
    among equals); a branch binds its relation's new pairs, re-checks only
    the options that watch a newly bound name or the master production
    just taken, and puts each option it kills on a trail that backtracking
    unwinds.  Among the distinct full bindings found, those with the most
    exactly-matching productions win (a single binding found is the
    winner).  A single winner is adopted, and several raise
    ResolutionAmbiguity.

    The search stops after SEARCH_NODE_CAP nodes, or once it holds
    SEARCH_MAX_BINDINGS distinct bindings and would look for more.  Either
    way its candidate list is incomplete, so no winner is chosen from it.
    Only then, or when the search finds no complete matching (structurally
    alien grammars), a greedy fixpoint runs: from the same seed, its rounds
    filter the option table's strong options, then the whole table, by the
    binding and commit every production pair that is the unique consistent
    choice among them, binding the paired left-hand sides and the
    unambiguous part of the induced relation, and matched pairs are
    re-narrowed as the binding grows.  After a capped search its result is
    kept when it binds every servant name, and otherwise ResolutionAmbiguity
    is raised with the candidates found (or the greedy partial binding when
    there are none).  After a search that found nothing it is kept, with
    omega for the unresolved names.
    """
    _require_anf("master", master)
    _require_anf("servant", servant)
    return _resolve(master, servant)


def _require_anf(label: str, g: Grammar) -> None:
    violations = anf_check(g)
    if violations:
        shown = "; ".join(str(v) for v in violations)
        raise ResolutionError(f"{label} grammar is not in abstract normal form: {shown}")


def _resolve(master: Grammar, servant: Grammar) -> NominalMapping:
    """nominal_resolution of two grammars already checked to be in ANF."""
    seed = _Binding()
    for rs, rm in zip(servant.roots, master.roots):
        seed.bind(rs, rm)

    res = _Resolution(master, servant)
    servant_names = res.servant.names
    candidates, capped = _complete_matchings(res, seed)
    if candidates and not capped:
        best = candidates if len(candidates) == 1 else _best_bindings(res, candidates)
        if len(best) > 1:
            raise ResolutionAmbiguity(best)
        fwd = best[0]
    else:
        fwd = _greedy_fixpoint(res, seed).fwd
        if capped and any(name not in fwd for name in servant_names):
            raise ResolutionAmbiguity(candidates or [dict(fwd)])

    pairs: list[tuple[str | None, str | None]] = [
        (name, fwd.get(name)) for name in servant_names]
    mapped = {b for _, b in pairs if b is not None}
    for name in res.master.names:
        if name not in mapped:
            pairs.append((None, name))
    mapping = NominalMapping(frozenset(pairs))
    object.__setattr__(mapping, "indexes", (res.master, res.servant))
    return mapping


def _shared_pairs(relations: list[_Relation]) -> list[tuple[str, str]]:
    return sorted(set(relations[0]).intersection(*relations[1:]))


def _greedy_fixpoint(res: _Resolution, binding: _Binding) -> _Binding:
    unmatched_s = list(range(len(res.servant.productions)))
    unmatched_m = set(range(len(res.master.productions)))
    matched: list[tuple[int, int, list[list[_Option]]]] = []

    def viable(si: int, table: list[list[_Option]],
               masters: set[int]) -> dict[int, list[_Relation]]:
        # the options of `si` among `masters` that extend the binding
        found: dict[int, list[_Relation]] = {}
        for mi, rel in table[si]:
            if mi in masters and binding.admits(rel):
                found.setdefault(mi, []).append(rel)
        return found

    def narrow() -> bool:
        moved = False
        for si, mi, table in matched:
            # the matched pair's relations, when any still extends the binding
            for relations in viable(si, table, {mi}).values():
                for a, b in _shared_pairs(relations):
                    if binding.fwd.get(a) != b:
                        binding.bind(a, b)
                        moved = True
        return moved

    tables = (res.strong_options(), res.options)  # strong first, then weak
    progress = True
    while progress:
        progress = False
        for table in tables:
            for si in list(unmatched_s):
                options = viable(si, table, unmatched_m)
                if len(options) == 1:
                    (mi, relations), = options.items()
                    for a, b in _shared_pairs(relations):
                        binding.bind(a, b)
                    unmatched_s.remove(si)
                    unmatched_m.remove(mi)
                    matched.append((si, mi, table))
                    progress = True
            if progress:
                break
        if not progress:
            progress = narrow()
    return binding


def _complete_matchings(res: _Resolution, seed: _Binding,
                        cap: int = SEARCH_NODE_CAP) -> tuple[list[dict[str, str]], bool]:
    """Distinct full bindings reachable by pairing every servant production
    injectively with a weakly equivalent master production, consistently
    with the seed.  Returns (bindings, capped): capped is set when the
    search stopped at `cap` nodes or at SEARCH_MAX_BINDINGS bindings before
    it was done, so the bindings may be incomplete.

    An option of the option table stays live while its master production
    is free and its relation extends the binding.  It is watched by the
    names it pairs and by its master production, so a branch re-checks only
    the options that watch a name it newly binds or the master production
    it takes; each option it kills goes on a trail, and backtracking
    revives them."""
    table = res.options
    fwd, rev = dict(seed.fwd), dict(seed.rev)
    first = [0]            # servant production si owns options first[si]..first[si + 1]
    owner: list[int] = []  # each option's servant production
    holders: dict[tuple[str, str], list[int]] = {}  # a pair -> the options pairing it
    users: dict[int, list[int]] = {}  # master production -> the options on it
    for si, options in enumerate(table):
        for mi, rel in options:
            o = len(owner)
            owner.append(si)
            users.setdefault(mi, []).append(o)
            for pair in rel:
                holders.setdefault(pair, []).append(o)
        first.append(len(owner))
    images: dict[str, list[str]] = {}    # servant name -> the names options pair it with
    preimages: dict[str, list[str]] = {}  # master name -> the names options pair with it
    for a, b in holders:
        images.setdefault(a, []).append(b)
        preimages.setdefault(b, []).append(a)
    alive = bytearray(b"\1") * len(owner)
    live = [len(options) for options in table]
    open_s = set(range(len(table)))
    trail: list[int] = []

    def cut(options: list[int], spare: int = -1) -> bool:
        """Kill the live ones among `options`, but for those of servant
        production `spare`; whether an open production lost its last
        option (the kills stop there)."""
        for o in options:
            if alive[o] and owner[o] != spare:
                alive[o] = 0
                trail.append(o)
                si = owner[o]
                live[si] -= 1
                if not live[si] and si in open_s:
                    return True
        return False

    def bind(pairs) -> bool:
        """Kill the options that pair a name of `pairs`, bound just now,
        with anything else; whether the branch is dead."""
        for a, b in pairs:
            for x in images.get(a, ()):
                if x != b and cut(holders[a, x]):
                    return True
            for y in preimages.get(b, ()):
                if y != a and cut(holders[y, b]):
                    return True
        return False

    results: list[dict[str, str]] = []
    seen: set[frozenset] = set()
    budget = cap
    capped = False

    def dfs(dead: bool) -> None:
        nonlocal budget, capped
        if budget <= 0 or len(results) >= SEARCH_MAX_BINDINGS:
            capped = True
            return
        budget -= 1
        if not open_s:
            key = frozenset(fwd.items())
            if key not in seen:
                seen.add(key)
                results.append(dict(fwd))
            return
        if dead:
            return
        # fail-first: expand the production with the fewest live options
        si = min(open_s, key=lambda x: (live[x], x))
        open_s.remove(si)
        for o, (mi, rel) in enumerate(table[si], first[si]):
            if not alive[o]:
                continue
            mark = len(trail)
            new = []
            for a, b in rel:
                if a not in fwd:  # a self-referential rule repeats its lhs pair
                    fwd[a] = b
                    rev[b] = a
                    new.append((a, b))
            # the other productions lose master production mi
            dfs(cut(users[mi], si) or bind(new))
            while len(trail) > mark:
                back = trail.pop()
                alive[back] = 1
                live[owner[back]] += 1
            for a, b in new:
                del fwd[a], rev[b]
        open_s.add(si)

    # the root is dead when a production has no option, or none the seed admits
    dfs(not all(live) or bind(fwd.items()))
    return results, capped


def _exact_score(targets: set, servant: _SignatureIndex, fwd: dict[str, str]) -> int:
    """How many servant productions map exactly (lhs and footprint-equal
    signature) onto one of the master's `targets` under the binding."""
    score = 0
    for prod, sig in zip(servant.productions, servant.sigs):
        mapped = (fwd.get(prod.lhs),
                  frozenset((fwd.get(name, name), fp) for name, fp in sig.items()))
        if mapped in targets:
            score += 1
    return score


def _best_bindings(res: _Resolution,
                   candidates: list[dict[str, str]]) -> list[dict[str, str]]:
    targets = res.master.exact_targets()
    scored = [(_exact_score(targets, res.servant, fwd), fwd) for fwd in candidates]
    best = max(score for score, _ in scored)
    return [fwd for score, fwd in scored if score == best]


# --------------------------------------------------------------------------
# structural matching


@dataclass
class PairMatch:
    left: Production   # servant rule
    right: Production  # master rule
    strength: str      # "strong" | "weak"


@dataclass
class Residue:
    side: str          # "servant" | "master"
    production: Production


@dataclass
class MatchReport:
    pairs: list[PairMatch]
    mapping: NominalMapping
    residue: list[Residue]
    structural_trace: list[TransformStep]
    normalization_trace: list[TransformStep] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


class _Aligner:
    """Alignment of one servant rhs onto one master rhs under a name mapping.

    `walk` returns the steps that rewrite the servant side into the master's
    shape, or None when the two do not align.  A nonterminal aligns with its
    mapped name, or is bound to a master value; a + is widened to a *, or a
    * to a +; any other pair must be of one class: equal leaves, or
    composites aligned child by child through `children` (a selector's name
    compared first), whose rule-level sequence parts may be permuted.  Paths
    address the servant tree as it stands when the step applies (parent
    adjustments come before the steps below them)."""

    def __init__(self, mapping: dict[str, str], lhs: str, pos: int) -> None:
        self.mapping = mapping
        self.lhs = lhs
        self.pos = pos

    def walk(self, s: Expr, m: Expr, path: tuple[int, ...]) -> list[TransformStep] | None:
        kind = type(s)
        if kind is Nonterminal:
            if type(m) is Nonterminal:
                return [] if self.mapping.get(s.name) == m.name else None
            # a nonterminal standing where the master has a built-in value
            return [self._set(path, m, s)] if type(m) in VALUE_NAME_OF else None
        if kind is not type(m):
            if kind not in (Star, Plus) or type(m) not in (Star, Plus):
                return None
            # + against *: widen the servant side onto the master's kind
            inner = self.walk(s.body, m.body, path + (0,))
            return None if inner is None else [self._set(path, type(m)(s.body), s)] + inner
        s_kids = children(s)
        if not s_kids:
            return [] if s == m else None
        if kind is Selectable and s.selector != m.selector:
            return None
        return self._children(s_kids, children(m), path, kind is Sequence)

    def _children(self, s_kids, m_kids, path, permute: bool) -> list[TransformStep] | None:
        """Children aligned position by position; the parts of a rule-level
        sequence (`permute`) may also be permuted."""
        k = len(s_kids)
        if len(m_kids) != k:
            return None
        diagonal = [self.walk(s_kids[i], m_kids[i], path + (i,)) for i in range(k)]
        if None not in diagonal:
            return [step for cell in diagonal for step in cell]
        if path or not permute:
            return None  # permutations are recorded at rule level only
        # a part is walked at the position it moves to, so the chosen order
        # reuses the steps of its cells
        table = [[diagonal[i] if j == i else self.walk(s_kids[i], m_kids[j], (j,))
                  for j in range(k)] for i in range(k)]
        order = _sequence_order(table)
        if order is None:
            return None
        steps = [TransformStep("permute", {"lhs": self.lhs, "pos": self.pos,
                                           "order": list(order)})]
        return steps + [step for i, target in enumerate(order)
                        for step in table[i][target - 1]]

    def _set(self, path: tuple[int, ...], expr: Expr, previous: Expr) -> TransformStep:
        return TransformStep("set-node", {"lhs": self.lhs, "pos": self.pos,
                                          "path": list(path), "expr": expr,
                                          "previous": previous})


def _sequence_order(fits: list[list]) -> tuple[int, ...] | None:
    """The 1-based master position of each servant part: the
    lexicographically first permutation under which every part fits its
    target (a cell fits unless it is None), or None when there is none."""
    rows = [[j for j, cell in enumerate(row) if cell is not None] for row in fits]
    order: list[int] = []
    taken: set[int] = set()
    for i, row in enumerate(rows):
        # the smallest target that still leaves the later parts a target each
        target = next((j for j in row if j not in taken
                       and _assignable(rows[i + 1:], taken | {j})), None)
        if target is None:
            return None
        order.append(target + 1)
        taken.add(target)
    return tuple(order)


def _assignable(rows: list[list[int]], taken: set[int]) -> bool:
    """Whether each row can have a column of its own from its list, none of
    them in `taken`: a perfect matching grown by augmenting paths."""
    owner: dict[int, int] = {}  # column -> row
    held: dict[int, int] = {}   # row -> column
    for start in range(len(rows)):
        came: dict[int, int] = {}  # column -> the row the search reached it from
        queue = [start]
        free = None
        for row in queue:
            for col in rows[row]:
                if col in taken or col in came:
                    continue
                came[col] = row
                if col not in owner:
                    free = col
                    break
                queue.append(owner[col])
            if free is not None:
                break
        if free is None:
            return False
        col = free
        while col is not None:  # flip the path back to `start`
            row = came[col]
            prev = held.get(row)
            held[row], owner[col] = col, row
            col = prev
    return True


def structural_match(master: Grammar, servant: Grammar,
                     mapping: NominalMapping) -> MatchReport:
    """Match the servant productions against the master productions under a
    total name mapping; the recorded trace rewrites the servant rules onto
    the master shapes (modulo renaming).  A step-free pair is strong when
    its rules are strongly equivalent, read from the strong keys of the two
    grammars' signature indexes: the mapping's `indexes` when they were
    derived from these very rules, and otherwise indexes built here."""
    name_map = mapping.as_dict()
    missing = sorted(servant.names - {a for a, _ in mapping.pairs} - VALUE_NAME_SET)
    if missing:
        raise MatchError(f"mapping does not cover servant names: {', '.join(missing)}")

    indexes = mapping.indexes
    if indexes is None or (indexes[0].productions is not master.productions
                           or indexes[1].productions is not servant.productions):
        indexes = (_SignatureIndex(master), _SignatureIndex(servant))
    master_keys, servant_keys = indexes[0].strong_keys, indexes[1].strong_keys

    matched_master: set[int] = set()
    rows: list[tuple[int, PairMatch]] = []
    residue: list[tuple[int, Residue]] = []
    trace: list[TransformStep] = []

    for s_nt, rule_indices in servant.blocks.items():
        candidates = master.blocks.get(name_map.get(s_nt), ())
        for pos, si in enumerate(rule_indices):
            sprod = servant.productions[si]
            aligner = _Aligner(name_map, s_nt, pos)
            best: tuple[int, list[TransformStep]] | None = None
            for mi in candidates:
                if mi in matched_master:
                    continue
                steps = aligner.walk(sprod.rhs, master.productions[mi].rhs, ())
                if steps is not None and (best is None or len(steps) < len(best[1])):
                    best = (mi, steps)
                    if not steps:
                        break
            if best is None:
                residue.append((si, Residue("servant", sprod)))
                continue
            mi, steps = best
            matched_master.add(mi)
            mprod = master.productions[mi]
            strength = ("strong" if not steps and servant_keys[si] is not None
                        and servant_keys[si] == master_keys[mi] else "weak")
            trace.extend(steps)
            rows.append((si, PairMatch(sprod, mprod, strength)))

    for mi, mprod in enumerate(master.productions):
        if mi not in matched_master:
            residue.append((len(servant.productions) + mi, Residue("master", mprod)))

    rows.sort(key=lambda item: item[0])
    residue.sort(key=lambda item: item[0])
    return MatchReport([row for _, row in rows], mapping,
                       [entry for _, entry in residue], trace)


# --------------------------------------------------------------------------
# the pipeline


def guided_converge(master: Grammar, servant_raw: Grammar,
                    observer=None) -> MatchReport:
    """Run the full convergence pipeline: deyaccify the servant, normalize
    both grammars to abstract normal form (the master is expected to be
    abstract already; normalizing it produces a warning), resolve the name
    mapping and match the structures.  `observer(phase, grammar)` receives
    each intermediate grammar."""
    warnings: list[str] = []

    def note(phase: str, g: Grammar) -> None:
        if observer is not None:
            observer(phase, g)

    master_anf = master
    normalized = bool(anf_check(master))
    if normalized:
        master_anf = mutate(master, Mutation("normalize-anf")).grammar
        warnings.append("master grammar was not in abstract normal form; normalized")
    note("master-anf", master_anf)

    design = mutate(servant_raw, Mutation("deyaccify-all"))
    note("servant-deyaccified", design.grammar)
    normal = mutate(design.grammar, Mutation("normalize-anf"))
    note("servant-anf", normal.grammar)

    # a master found in ANF above is not checked again
    if normalized:
        _require_anf("master", master_anf)
    _require_anf("servant", normal.grammar)
    mapping = _resolve(master_anf, normal.grammar)
    report = structural_match(master_anf, normal.grammar, mapping)
    report.normalization_trace = design.trace + normal.trace
    report.warnings = warnings + report.warnings
    return report


def replay_convergence(servant_raw: Grammar, report: MatchReport) -> Grammar:
    """Replay the recorded normalization and structural traces on the raw
    servant grammar (the result agrees with the master structurally, up to
    the nominal mapping)."""
    return apply_script(servant_raw,
                        list(report.normalization_trace) + list(report.structural_trace))


# --------------------------------------------------------------------------
# signature metrics


@dataclass
class SigMetrics:
    productions: int
    distinct_footprints: int
    footprint_histogram: dict[str, int]
    signature_sizes: list[tuple[str, int]]


def sig_metrics(g: Grammar) -> SigMetrics:
    histogram: dict[str, int] = {}
    sizes: list[tuple[str, int]] = []
    distinct: set[Footprint] = set()
    for prod in g.productions:
        sig = prodsig(prod)
        sizes.append((prod.lhs, len(sig)))
        for fp in sig.values():
            distinct.add(fp)
            histogram[fp.render()] = histogram.get(fp.render(), 0) + 1
    ordered = dict(sorted(histogram.items()))
    return SigMetrics(len(g.productions), len(distinct), ordered, sizes)


# --------------------------------------------------------------------------
# renderings


def _shown(name: str | None) -> str:
    return "omega" if name is None else name


def report_to_json(report: MatchReport) -> dict:
    return _report_doc(report, production_to_json, step_to_json)


def _report_doc(report: MatchReport, production, step) -> dict:
    """The report's layout, with each rule and step as its encoder gives it."""
    mapping = sorted(([_shown(a), _shown(b)] for a, b in report.mapping.pairs),
                     key=lambda ab: (ab[0] == "omega", ab[0], ab[1]))
    return {
        "mapping": mapping,
        "pairs": [{"left": production(pair.left), "right": production(pair.right),
                   "strength": pair.strength} for pair in report.pairs],
        "residue": [{"side": entry.side, "production": production(entry.production)}
                    for entry in report.residue],
        "normalization_trace": [step(item) for item in report.normalization_trace],
        "structural_trace": [step(item) for item in report.structural_trace],
        "warnings": list(report.warnings),
    }


def render_prodsig_table(g: Grammar) -> str:
    """Two-column table: production rules against their signatures."""
    left = [f"p{i + 1} = {prod.lhs} -> {render_expr(prod.rhs)}"
            for i, prod in enumerate(g.productions)]
    width = max((len(item) for item in left), default=0)
    return "\n".join(f"{item.ljust(width)}   {render_prodsig(prodsig(prod))}"
                     for item, prod in zip(left, g.productions))


def render_mapping(mapping: NominalMapping) -> str:
    entries = sorted(mapping.pairs, key=lambda ab: (ab[0] is None, ab[0] or "", ab[1] or ""))
    return "\n".join(f"  <{_shown(a)}, {_shown(b)}>" for a, b in entries)


def render_match_report(report: MatchReport) -> str:
    lines = []
    left = [render_production(pair.left) for pair in report.pairs]
    width = max((len(item) for item in left), default=0)
    for shown, pair in zip(left, report.pairs):
        symbol = "=~=" if pair.strength == "strong" else "~w~"
        lines.append(f"{shown.ljust(width)} {symbol} {render_production(pair.right)}")
    lines.append("")
    lines.append("mapping:")
    lines.append(render_mapping(report.mapping))
    if report.residue:
        lines.append("")
        lines.append("residue:")
        for entry in report.residue:
            lines.append(f"  [{entry.side}] {render_production(entry.production)}")
    return "\n".join(lines) + "\n"
