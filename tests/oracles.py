"""Independent oracles the tests check the implementation against.

`language` enumerates the strings a grammar derives, by bounded exhaustive
expansion; it knows nothing about the transformation machinery.
`resolution_oracle` enumerates all vocabulary bijections between two grammars
and keeps those under which every production has a weakly signature-equal
counterpart, root correspondence fixed.  `tokenize` is the character-by-
character recovery tokenizer that the compiled scanner replaced; it yields
`(line, kind, text, role)` tuples.  `parse_rhs` is the recursive-descent
rule-body parser, one method per precedence level, that the single loop over
a bracket stack replaced; it takes recovery tokens and returns the body's
expression or raises its `RecoveryError`.  `footprint` is the per-name
recursion that the one pass over a rule's subterms replaced, and
`per_name_prodsig` builds a signature from it, one call per name.
`leaf_objects` groups the ids of a grammar's leaf objects by class and text,
for the checks that a grammar that is read shares its leaves.
`_Resolution` (with `consistent` and its two memos), `_greedy_fixpoint`,
`_complete_matchings` and `_resolve` are nominal resolution as it was before
the option table, kept verbatim: every node of the search re-derives each
open production's options from the candidates through `consistent`.
`_signature_relations` is the definition of the relations one production
pair induces, from its two signatures, that the relation builder over
strong and weak classes replaced: the single equal-footprint bijection at
strong strength, and at weak strength every one-to-one pairing within each
weak footprint class, with omega entries for the names left unpaired.
`render_expr` (with `_render`) and `render_term` are the two renderers as
they were before they read per-class tables: one isinstance test per node
class, each spelling out its children.
"""

from __future__ import annotations

import itertools

from gramconv.converge import (
    SEARCH_MAX_BINDINGS,
    SEARCH_NODE_CAP,
    Footprint,
    NominalMapping,
    ResolutionAmbiguity,
    _best_bindings,
    _Binding,
    _binds_alone,
    _leaf_name,
    _SignatureIndex,
    _unwrapped_leaf,
    prodsig,
)
from gramconv.grammar import (
    EPSILON,
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
    plus,
    sepplus,
    sepstar,
    seq,
    star,
    subterms,
    names_in_order,
    vocabulary,
)
from gramconv.notation import NotationSpec
from gramconv.recovery import RecoveryError


def leaf_objects(g: Grammar) -> dict[tuple[type, str], set[int]]:
    """The ids of the Terminal and Nonterminal objects in g's right-hand
    sides, by class and text."""
    found: dict[tuple[type, str], set[int]] = {}
    for prod in g.productions:
        for sub in subterms(prod.rhs):
            if type(sub) is Terminal or type(sub) is Nonterminal:
                text = sub.text if type(sub) is Terminal else sub.name
                found.setdefault((type(sub), text), set()).add(id(sub))
    return found


def _concat(lefts: set[tuple], rights: set[tuple], max_len: int) -> set[tuple]:
    out = set()
    for left in lefts:
        for right in rights:
            if len(left) + len(right) <= max_len:
                out.add(left + right)
    return out


def language(g: Grammar, start: str, max_len: int, depth: int = 12) -> set[tuple]:
    """All terminal strings (as tuples) of length <= max_len derivable from
    `start`, with nonterminal expansion bounded by `depth`."""
    rules: dict[str, list[Expr]] = {}
    for prod in g.productions:
        rules.setdefault(prod.lhs, []).append(prod.rhs)

    def walk(expr: Expr, budget: int) -> set[tuple]:
        if budget < 0:
            return set()
        if isinstance(expr, Epsilon):
            return {()}
        if isinstance(expr, Empty):
            return set()
        if isinstance(expr, Anything):
            raise ValueError("wildcard has no enumerable language")
        if isinstance(expr, Terminal):
            return {(expr.text,)} if max_len >= 1 else set()
        if isinstance(expr, ValueStr):
            return {("<str>",)}
        if isinstance(expr, ValueInt):
            return {("<int>",)}
        if isinstance(expr, Nonterminal):
            if budget == 0:
                return set()
            out: set[tuple] = set()
            for rhs in rules.get(expr.name, []):
                out |= walk(rhs, budget - 1)
            return out
        if isinstance(expr, Selectable):
            return walk(expr.body, budget)
        if isinstance(expr, Sequence):
            acc = {()}
            for part in expr.parts:
                acc = _concat(acc, walk(part, budget), max_len)
                if not acc:
                    return acc
            return acc
        if isinstance(expr, Choice):
            out = set()
            for alt in expr.alternatives:
                out |= walk(alt, budget)
            return out
        if isinstance(expr, Optional):
            return {()} | walk(expr.body, budget)
        if isinstance(expr, Star):
            return _repeat(walk(expr.body, budget), 0)
        if isinstance(expr, Plus):
            return _repeat(walk(expr.body, budget), 1)
        if isinstance(expr, SepListStar):
            return _seplist(walk(expr.item, budget), walk(expr.separator, budget), 0)
        if isinstance(expr, SepListPlus):
            return _seplist(walk(expr.item, budget), walk(expr.separator, budget), 1)
        raise TypeError(expr)

    def _repeat(once: set[tuple], at_least: int) -> set[tuple]:
        out = {()} if at_least == 0 else set()
        acc = {()}
        for _ in range(max_len + 1):
            acc = _concat(acc, once, max_len)
            if not acc:
                break
            out |= acc
        if at_least == 0:
            out.add(())
        return out

    def _seplist(items: set[tuple], seps: set[tuple], at_least: int) -> set[tuple]:
        out = {()} if at_least == 0 else set()
        if not items:
            return out
        acc = set(items)
        out |= acc
        pair = _concat(seps, items, max_len)
        for _ in range(max_len + 1):
            acc = _concat(acc, pair, max_len)
            if not acc:
                break
            out |= acc
        return out

    return {s for s in walk(Nonterminal(start), depth) if len(s) <= max_len}


def nonvalue_names(g: Grammar) -> list[str]:
    voc = vocabulary(g)
    return sorted(voc.defined | voc.used)


def resolution_oracle(master: Grammar, servant: Grammar) -> list[dict[str, str]]:
    """All vocabulary bijections validated against per-production signature
    equivalence, root correspondence pinned.

    A bijection is admissible when every production on either side has a
    weakly signature-equal counterpart (+ conflated with *) under the
    renaming.  Among admissible bijections only those with the greatest
    number of exactly (footprint-equal) matching productions are kept,
    mirroring the strong-before-weak pairing order of the resolution
    algorithm; an instance is uniquely solvable when one bijection remains.
    """
    m_names = nonvalue_names(master)
    s_names = nonvalue_names(servant)
    if len(m_names) != len(s_names):
        return []

    def sigs(prod, weaken: bool) -> frozenset:
        return frozenset((name, fp.weak() if weaken else fp)
                         for name, fp in prodsig(prod).items())

    m_weak = [(prod.lhs, sigs(prod, True)) for prod in master.productions]
    m_exact = [(prod.lhs, sigs(prod, False)) for prod in master.productions]

    scored: list[tuple[int, dict[str, str]]] = []
    for image in itertools.permutations(m_names):
        phi = dict(zip(s_names, image))
        if any(phi.get(rs) != rm for rs, rm in zip(servant.roots, master.roots)):
            continue
        ok = True
        used = []
        exact_hits = 0
        for prod in servant.productions:
            weak_entry = (phi[prod.lhs], frozenset(
                (phi.get(name, name), fp) for name, fp in sigs(prod, True)))
            if weak_entry not in m_weak:
                ok = False
                break
            used.append(weak_entry)
            exact_entry = (phi[prod.lhs], frozenset(
                (phi.get(name, name), fp) for name, fp in sigs(prod, False)))
            if exact_entry in m_exact:
                exact_hits += 1
        if ok:
            for entry in m_weak:
                if entry not in used:
                    ok = False
                    break
        if ok:
            full = dict(phi)
            for value in VALUE_NAMES:
                if any(value in prodsig(prod) for prod in servant.productions):
                    full[value] = value
            scored.append((exact_hits, full))
    if not scored:
        return []
    best = max(count for count, _ in scored)
    return [phi for count, phi in scored if count == best]


_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")


def tokenize(text: str, notation: NotationSpec) -> list[tuple]:
    """Longest-match tokenizing by trying every lexeme at every character."""
    roles = notation.as_dict()
    comment = roles.get("line-comment-start")
    quote_close = roles.get("terminal-end-quote")
    lexemes = sorted(
        ((lexeme, role) for role, lexeme in roles.items()
         if role not in ("line-comment-start", "terminal-end-quote")),
        key=lambda item: -len(item[0]))
    tokens: list[tuple] = []
    pos = 0
    line = 1
    length = len(text)
    while pos < length:
        ch = text[pos]
        if ch == "\n":
            line += 1
            pos += 1
            continue
        if ch.isspace():
            pos += 1
            continue
        if comment and text.startswith(comment, pos):
            end = text.find("\n", pos)
            pos = length if end == -1 else end
            continue
        matched = None
        for lexeme, role in lexemes:
            if not text.startswith(lexeme, pos):
                continue
            # a lexeme made of name characters only counts at a word boundary
            if (set(lexeme) <= _NAME_CHARS
                    and pos + len(lexeme) < length
                    and text[pos + len(lexeme)] in _NAME_CHARS):
                continue
            matched = (lexeme, role)
            break
        if matched is not None:
            lexeme, role = matched
            if role == "terminal-start-quote":
                end = text.find(quote_close, pos + len(lexeme))
                if end == -1:
                    raise RecoveryError(line, "unterminated terminal quote")
                body = text[pos + len(lexeme):end]
                if "\n" in body:
                    raise RecoveryError(line, "terminal quote spans lines")
                tokens.append((line, "terminal", body, None))
                pos = end + len(quote_close)
                continue
            tokens.append((line, "lex", lexeme, role))
            pos += len(lexeme)
            continue
        if ch in _NAME_CHARS:
            end = pos
            while end < length and text[end] in _NAME_CHARS:
                end += 1
            tokens.append((line, "name", text[pos:end], None))
            pos = end
            continue
        raise RecoveryError(line, f"unexpected character {ch!r}")
    return tokens


class _RhsParser:
    def __init__(self, tokens: list[_Token], end_line: int) -> None:
        self.tokens = tokens
        self.at = 0
        self.end_line = end_line

    def _line(self) -> int:
        if self.at < len(self.tokens):
            return self.tokens[self.at].line
        return self.end_line

    def peek(self) -> _Token | None:
        return self.tokens[self.at] if self.at < len(self.tokens) else None

    def take(self) -> _Token:
        token = self.tokens[self.at]
        self.at += 1
        return token

    def parse(self) -> Expr:
        expr = self.alternation(closing=None)
        if self.at != len(self.tokens):
            token = self.tokens[self.at]
            raise RecoveryError(token.line, f"unbalanced {token.text!r}")
        return expr

    def alternation(self, closing: str | None) -> Expr:
        alternatives = [self.concatenation(closing)]
        while True:
            token = self.peek()
            if token is not None and token.kind == "lex" \
                    and token.role == "definition-separator":
                self.take()
                alternatives.append(self.concatenation(closing))
            else:
                break
        return choice(*alternatives) if len(alternatives) > 1 else alternatives[0]

    def concatenation(self, closing: str | None) -> Expr:
        parts: list[Expr] = []
        while True:
            token = self.peek()
            if token is None:
                break
            if token.kind == "lex" and token.role in ("definition-separator",):
                break
            if token.kind == "lex" and closing is not None and token.role == closing:
                break
            if token.kind == "lex" and token.role in ("group-end", "option-end",
                                                      "nonterminal-end"):
                break
            if token.kind == "lex" and token.role == "concatenation":
                self.take()
                continue
            parts.append(self.seplist_term(closing))
        if not parts:
            return EPSILON
        return seq(*parts)

    def seplist_term(self, closing: str | None) -> Expr:
        expr = self.postfixed(closing)
        while True:
            token = self.peek()
            if token is not None and token.kind == "lex" \
                    and token.role in ("seplist-star", "seplist-plus"):
                self.take()
                separator = self.postfixed(closing)
                ctor = sepstar if token.role == "seplist-star" else sepplus
                expr = ctor(expr, separator)
            else:
                break
        return expr

    def postfixed(self, closing: str | None) -> Expr:
        expr = self.primary(closing)
        while True:
            token = self.peek()
            if token is not None and token.kind == "lex" and token.role in (
                    "star-postfix", "plus-postfix", "option-postfix"):
                self.take()
                if token.role == "star-postfix":
                    expr = star(expr)
                elif token.role == "plus-postfix":
                    expr = plus(expr)
                else:
                    expr = opt(expr)
            else:
                break
        return expr

    def primary(self, closing: str | None) -> Expr:
        token = self.peek()
        if token is None:
            raise RecoveryError(self._line(), "expected an expression")
        if token.kind == "terminal":
            self.take()
            if not token.text:
                raise RecoveryError(token.line, "empty terminal")
            return Terminal(token.text)
        if token.kind == "name":
            self.take()
            return self._name_expr(token.text)
        if token.kind == "lex" and token.role == "group-start":
            self.take()
            inner = self.alternation("group-end")
            closer = self.peek()
            if closer is None or closer.kind != "lex" or closer.role != "group-end":
                raise RecoveryError(token.line, "unbalanced group brackets")
            self.take()
            return inner
        if token.kind == "lex" and token.role == "option-start":
            self.take()
            inner = self.alternation("option-end")
            closer = self.peek()
            if closer is None or closer.kind != "lex" or closer.role != "option-end":
                raise RecoveryError(token.line, "unbalanced option brackets")
            self.take()
            return opt(inner)
        if token.kind == "lex" and token.role == "nonterminal-start":
            self.take()
            inner = self.peek()
            if inner is None or inner.kind != "name":
                raise RecoveryError(token.line, "expected a name after nonterminal bracket")
            self.take()
            closer = self.peek()
            if closer is None or closer.kind != "lex" or closer.role != "nonterminal-end":
                raise RecoveryError(token.line, "unbalanced nonterminal brackets")
            self.take()
            return self._name_expr(inner.text)
        raise RecoveryError(token.line, f"unexpected {token.text!r}")

    @staticmethod
    def _name_expr(name: str) -> Expr:
        return VALUE_NAMES.get(name, Nonterminal(name))


def parse_rhs(tokens, end_line: int) -> Expr:
    return _RhsParser(tokens, end_line).parse()


_MARKER_OF = {Optional: "?", Star: "*", Plus: "+"}


def footprint(name: str, expr: Expr) -> Footprint:
    if _leaf_name(expr) == name:
        return Footprint(("1",))
    marker = _MARKER_OF.get(type(expr))
    if marker is not None and _unwrapped_leaf(expr.body) == name:
        return Footprint((marker,))
    if isinstance(expr, Selectable):
        return footprint(name, expr.body)
    if isinstance(expr, (SepListStar, SepListPlus)):
        return footprint(name, expr.item)
    if isinstance(expr, Sequence):
        result = Footprint(())
        for part in expr.parts:
            result = result.union(footprint(name, part))
        return result
    return Footprint(())


def per_name_prodsig(prod) -> dict[str, Footprint]:
    sig: dict[str, Footprint] = {}
    for name in dict.fromkeys(filter(None, map(_leaf_name, subterms(prod.rhs)))):
        fp = footprint(name, prod.rhs)
        if fp:
            sig[name] = fp
    return sig


def _signature_relations(sp: dict[str, Footprint], sq: dict[str, Footprint],
                         strength: str) -> list[frozenset[tuple[str | None, str | None]]]:
    """The relations of `pair_resolution` for two signatures already known
    to be equivalent at `strength`."""
    if strength == "strong":
        inverse = {fp: name for name, fp in sq.items()}
        return [frozenset((name, inverse[fp]) for name, fp in sp.items())]
    classes: dict[Footprint, tuple[list[str], list[str]]] = {}
    for name, fp in sp.items():
        classes.setdefault(fp.weak(), ([], []))[0].append(name)
    for name, fp in sq.items():
        classes.setdefault(fp.weak(), ([], []))[1].append(name)
    per_class: list[list[list[tuple[str | None, str | None]]]] = []
    for left, right in classes.values():
        options: list[list[tuple[str | None, str | None]]] = []
        if len(left) <= len(right):
            for image in itertools.permutations(right, len(left)):
                pairs = list(zip(left, image))
                pairs += [(None, r) for r in right if r not in image]
                options.append(pairs)
        else:
            for domain in itertools.permutations(left, len(right)):
                pairs = list(zip(domain, right))
                pairs += [(l, None) for l in left if l not in domain]
                options.append(pairs)
        per_class.append(options)
    return [frozenset(pair for chunk in combo for pair in chunk)
            for combo in itertools.product(*per_class)]


class _Resolution:
    """State of one nominal resolution: both grammars' signature indexes and
    a memo of the relations each production pair induces."""

    def __init__(self, master: Grammar, servant: Grammar) -> None:
        self.master = _SignatureIndex(master)
        self.servant = _SignatureIndex(servant)
        self._relations: dict[tuple[int, int, str], list[_Relation]] = {}
        self._viable: dict[tuple[int, int, str], list[_Relation]] = {}

    def candidates(self, si: int, strength: str) -> list[int]:
        """Master productions equivalent to servant production `si`."""
        key = self.servant.keys[strength][si]
        return self.master.buckets[strength].get(key, []) if key is not None else []

    def relations(self, si: int, mi: int, strength: str) -> list[_Relation]:
        """The pair's `pair_resolution` relations, each with the lhs pair
        first and the omega entries dropped."""
        memo_key = (si, mi, strength)
        found = self._relations.get(memo_key)
        if found is None:
            lhs = (self.servant.productions[si].lhs, self.master.productions[mi].lhs)
            found = [(lhs,) + tuple(sorted((a, b) for a, b in pairs
                                           if a is not None and b is not None))
                     for pairs in _signature_relations(
                         self.servant.sigs[si], self.master.sigs[mi], strength)]
            self._relations[memo_key] = found
        return found

    def consistent(self, si: int, mi: int, strength: str,
                   binding: _Binding) -> list[_Relation]:
        """The pair's relations that extend the binding without conflict."""
        memo_key = (si, mi, strength)
        viable = self._viable.get(memo_key)
        if viable is None:
            # a relation that binds on its own is a one-to-one partial map,
            # so it can clash only with pairs the binding already holds
            viable = [rel for rel in self.relations(si, mi, strength)
                      if _binds_alone(rel)]
            self._viable[memo_key] = viable
        fwd, rev = binding.fwd, binding.rev
        return [rel for rel in viable
                if all(fwd.get(a, b) == b and rev.get(b, a) == a for a, b in rel)]


def _resolve(master: Grammar, servant: Grammar) -> NominalMapping:
    """nominal_resolution of two grammars already checked to be in ANF."""
    seed = _Binding()
    for rs, rm in zip(servant.roots, master.roots):
        seed.bind(rs, rm)

    res = _Resolution(master, servant)
    candidates, capped = _complete_matchings(res, seed)
    if candidates and not capped:
        best = _best_bindings(res, candidates)
        if len(best) > 1:
            raise ResolutionAmbiguity(best)
        fwd = best[0]
    else:
        fwd = _greedy_fixpoint(res, seed).fwd
        if capped and any(name not in fwd for name in names_in_order(servant, _leaf_name)):
            raise ResolutionAmbiguity(candidates or [dict(fwd)])

    pairs: list[tuple[str | None, str | None]] = []
    for name in names_in_order(servant, _leaf_name):
        pairs.append((name, fwd.get(name)))
    mapped = {b for _, b in pairs if b is not None}
    for name in names_in_order(master, _leaf_name):
        if name not in mapped:
            pairs.append((None, name))
    return NominalMapping(frozenset(pairs))


def _shared_pairs(relations: list[_Relation]) -> list[tuple[str, str]]:
    shared = set(relations[0])
    for rel in relations[1:]:
        shared &= set(rel)
    return sorted(shared)


def _greedy_fixpoint(res: _Resolution, binding: _Binding) -> _Binding:
    unmatched_s = list(range(len(res.servant.productions)))
    unmatched_m = set(range(len(res.master.productions)))
    matched: list[tuple[int, int, str]] = []

    def narrow() -> bool:
        moved = False
        for si, mi, strength in matched:
            relations = res.consistent(si, mi, strength, binding)
            if not relations:
                continue
            for a, b in _shared_pairs(relations):
                if binding.fwd.get(a) != b:
                    binding.bind(a, b)
                    moved = True
        return moved

    progress = True
    while progress:
        progress = False
        for strength in ("strong", "weak"):
            for si in list(unmatched_s):
                options = []
                for mi in res.candidates(si, strength):
                    if mi not in unmatched_m:
                        continue
                    relations = res.consistent(si, mi, strength, binding)
                    if relations:
                        options.append((mi, relations))
                if len(options) == 1:
                    mi, relations = options[0]
                    for a, b in _shared_pairs(relations):
                        binding.bind(a, b)
                    unmatched_s.remove(si)
                    unmatched_m.remove(mi)
                    matched.append((si, mi, strength))
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
    it was done, so the bindings may be incomplete."""
    results: list[dict[str, str]] = []
    seen: set[tuple] = set()
    budget = [cap]
    capped = [False]

    def dfs(current: _Binding, open_s: list[int], used_m: set[int]) -> None:
        if budget[0] <= 0 or len(results) >= SEARCH_MAX_BINDINGS:
            capped[0] = True
            return
        budget[0] -= 1
        if not open_s:
            key = tuple(sorted(current.fwd.items()))
            if key not in seen:
                seen.add(key)
                results.append(dict(current.fwd))
            return
        # fail-first: expand the production with the fewest consistent options
        scored = []
        for si in open_s:
            options = []
            for mi in res.candidates(si, "weak"):
                if mi in used_m:
                    continue
                for rel in res.consistent(si, mi, "weak", current):
                    options.append((mi, rel))
            if not options:
                return  # dead branch
            scored.append((len(options), si, options))
        count, si, options = min(scored, key=lambda item: (item[0], item[1]))
        rest = [x for x in open_s if x != si]
        for mi, rel in options:
            branch = current.copy()
            for a, b in rel:
                branch.bind(a, b)
            dfs(branch, rest, used_m | {mi})

    dfs(seed.copy(), list(range(len(res.servant.productions))), set())
    return results, capped[0]


def render_expr(expr: Expr) -> str:
    """Compact infix rendering (diagnostics only; see recovery.unparse for
    notation-faithful output)."""
    return _render(expr, 0)


def _render(expr: Expr, prec: int) -> str:
    # prec levels: 0 choice, 1 sequence, 2 postfix operand
    if isinstance(expr, Epsilon):
        return "ε"
    if isinstance(expr, Empty):
        return "φ"
    if isinstance(expr, Anything):
        return "α"
    if isinstance(expr, ValueStr):
        return "str"
    if isinstance(expr, ValueInt):
        return "int"
    if isinstance(expr, Terminal):
        return f'"{expr.text}"'
    if isinstance(expr, Nonterminal):
        return expr.name
    if isinstance(expr, Selectable):
        return f"{expr.selector}::{_render(expr.body, 2)}"
    if isinstance(expr, Sequence):
        body = " ".join(_render(part, 2) for part in expr.parts)
        return f"({body})" if prec > 1 else body
    if isinstance(expr, Choice):
        body = " | ".join(_render(alt, 1) for alt in expr.alternatives)
        return f"({body})" if prec > 0 else body
    if isinstance(expr, Optional):
        return _render(expr.body, 2) + "?"
    if isinstance(expr, Star):
        return _render(expr.body, 2) + "*"
    if isinstance(expr, Plus):
        return _render(expr.body, 2) + "+"
    if isinstance(expr, SepListStar):
        return "{" + _render(expr.item, 2) + " " + _render(expr.separator, 2) + "}*"
    if isinstance(expr, SepListPlus):
        return "{" + _render(expr.item, 2) + " " + _render(expr.separator, 2) + "}+"
    raise TypeError(f"not an expression: {expr!r}")


def render_term(expr: Expr) -> str:
    """Prefix term rendering, used by match reports."""
    if isinstance(expr, Epsilon):
        return "epsilon"
    if isinstance(expr, Empty):
        return "empty"
    if isinstance(expr, Anything):
        return "any"
    if isinstance(expr, ValueStr):
        return "str"
    if isinstance(expr, ValueInt):
        return "int"
    if isinstance(expr, Terminal):
        return f'"{expr.text}"'
    if isinstance(expr, Nonterminal):
        return expr.name
    if isinstance(expr, Selectable):
        return f"sel({expr.selector}, {render_term(expr.body)})"
    if isinstance(expr, Sequence):
        return "seq([" + ", ".join(render_term(part) for part in expr.parts) + "])"
    if isinstance(expr, Choice):
        return "choice([" + ", ".join(render_term(a) for a in expr.alternatives) + "])"
    if isinstance(expr, Optional):
        return f"?({render_term(expr.body)})"
    if isinstance(expr, Star):
        return f"*({render_term(expr.body)})"
    if isinstance(expr, Plus):
        return f"+({render_term(expr.body)})"
    if isinstance(expr, SepListStar):
        return f"sepstar({render_term(expr.item)}, {render_term(expr.separator)})"
    if isinstance(expr, SepListPlus):
        return f"sepplus({render_term(expr.item)}, {render_term(expr.separator)})"
    raise TypeError(f"not an expression: {expr!r}")
