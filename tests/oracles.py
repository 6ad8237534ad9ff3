"""Independent oracles the tests check the implementation against.

`language` enumerates the strings a grammar derives, by bounded exhaustive
expansion; it knows nothing about the transformation machinery.
`resolution_oracle` enumerates all vocabulary bijections between two grammars
and keeps those under which every production has a weakly signature-equal
counterpart, root correspondence fixed.  `tokenize` is the character-by-
character recovery tokenizer that the compiled scanner replaced; it yields
`(line, kind, text, role)` tuples.
"""

from __future__ import annotations

import itertools

from gramconv.converge import prodsig
from gramconv.grammar import (
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
    vocabulary,
)
from gramconv.notation import NotationSpec
from gramconv.recovery import RecoveryError

VALUE_NAMES = ("str", "int")


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
