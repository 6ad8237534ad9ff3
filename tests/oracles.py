"""Independent oracles the tests check the implementation against.

`language` enumerates the strings a grammar derives, by bounded exhaustive
expansion; it knows nothing about the transformation machinery.
`resolution_oracle` enumerates all vocabulary bijections between two grammars
and keeps those under which every production has a weakly signature-equal
counterpart, root correspondence fixed.  `tokenize` is the character-by-
character recovery tokenizer that the compiled scanner replaced; it yields
`(line, kind, text, role)` tuples.  `recover` (with `_scanner`,
`_tokenize`, `_split_rules`, `_rule_head`, `_take_lhs` and `_parse_rhs`) is
recovery as it was before the one pass over the scanner's matches, kept
verbatim: it builds a token list, copies it into one chunk per rule, parses
each chunk's head and body over a bracket stack, and scans the bodies again
for first uses.  `footprint` is the per-name
recursion that the one pass over a rule's subterms replaced, and
`per_name_prodsig` builds a signature from it, one call per name.
`leaf_objects` groups the ids of a grammar's leaf objects by class and text,
for the checks that a grammar that is read shares its leaves.
`_Resolution` (with `consistent` and its two memos), `_greedy_fixpoint`,
`_complete_matchings` and `_resolve` are nominal resolution as it was before
the option table, kept verbatim but for `_copied`, the binding copy the
search takes at every node: every node of the search re-derives each
open production's options from the candidates through `consistent`, and
`_resolve` walks both grammars with `names_in_order`.
`_signature_relations` is the definition of the relations one production
pair induces, from its two signatures, that the relation builder over
strong and weak classes replaced: the single equal-footprint bijection at
strong strength, and at weak strength every one-to-one pairing within each
weak footprint class, with omega entries for the names left unpaired.
`_binds_alone` is the filter by which the option tables kept the relations
that bind on their own before the relation builder took the pins of a
production pair, kept verbatim.
`_StrengthKeys` (with `_weak_and_strong` and `_Buckets`) holds each
production's classes, key and bucket per strength, as the signature index
derived them before resolution read its strong options from the weak
option table, kept verbatim, so that the oracle's `_Resolution` never reads
the keys of the index it checks.
`render_expr` (with `_render`) and `render_term` are the two renderers as
they were before they read per-class tables: one isinstance test per node
class, each spelling out its children.
`_Aligner` is structural matching's aligner as it was before it walked the
node table, kept verbatim: one branch per node class, each spelling out its
children.  `grammar_from_json` (with `_expr_from_json`) is the checking
interchange reader as it was before its explicit stack, kept verbatim: one
Python frame per expression level, so it gives out before `json.loads`
does.
`anf_check` is the ANF checker as it was before it walked each rule once,
kept verbatim: it walks each rhs through `subterms`, scans every node's
children a second time for condition 4, and reads condition 9's
reachability through `reachable`, a second walk of the rules; the
`render_expr` it calls for condition 7 is the oracle renderer above, which
agrees with `grammar.render_expr`.
`_holds` is the test by which the rewrite phases skipped a rule before
each grammar carried its rules' class masks, kept verbatim: a walk of the
rhs that stops at the first node of the phase's classes or the first unit
child the smart constructors would drop.
`dumps` (with `_write`), `serialize`, `_builder`, `deserialize` and
`unparse` are the interchange writer and reader and the unparser as they
were before the reader built nodes by tag, the writer wrote leaves and rule
frames whole and the renderer built its children's texts in plain loops,
kept verbatim: every object goes through the `_DECODERS` loop, every rule
through a dict, every leaf through two `_write` calls, and each sequence
and choice through a generator or comprehension.  The `grammar_from_json`
that this `deserialize` falls back on is the recursive reader above, which
gives the checking reader's outcome on every document it can read.
`_spliced`, `_reindexed` and `name_index` are how a grammar's blocks and
name index were carried through a splice before the blocks wholly after it
were moved in one pass and the index was updated from each rule's stored
names, kept verbatim: `_spliced` tests every block, and `_reindexed` and
`name_index` walk each rule they read with `used_names`.
`rebuild`, `replace_subterm` and `dnf` (with `with_children`) are the three
rewriting walks as they were before they built through
`grammar.reassembled`, kept verbatim: `rebuild` and `replace_subterm`
rebuild every composite node they pass with the smart constructors, and
`dnf` spells out its own rule for keeping a subtree.
"""

from __future__ import annotations

import itertools
import json
import operator
import re
from functools import partial
from itertools import chain
from json.encoder import encode_basestring as _encode_str
from typing import Callable, NamedTuple

from gramconv.converge import (
    SEARCH_MAX_BINDINGS,
    SEARCH_NODE_CAP,
    Footprint,
    NominalMapping,
    ResolutionAmbiguity,
    _best_bindings,
    _Binding,
    _extends,
    _leaf_name,
    _sequence_order,
    _SignatureIndex,
    _unwrapped_leaf,
    prodsig,
)
from gramconv.grammar import (
    _GET,
    _PUT,
    UNIT,
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
    VALUE_NAME_OF,
    ValueInt,
    ValueStr,
    children,
    choice,
    opt,
    reachable,
    sepplus,
    sepstar,
    seq,
    shared_leaf,
    subterms,
    names_in_order,
    tops,
    used_names,
    vocabulary,
)
from gramconv.interchange import (
    _DECODERS,
    _KEYS,
    _LEAF_CLASS,
    InterchangeError,
    _grammar,
    _reserved,
    _want,
)
from gramconv.mutate import _ATOMS, AnfViolation, _is_chain_rhs, _is_trivial_rhs
from gramconv.notation import NotationSpec
from gramconv.recovery import (
    _ALT,
    _ATOM,
    _BRACKETS,
    _CLOSERS,
    _INFIX,
    _POSTFIX,
    _ROLE_OF,
    _SEP,
    _SEQ,
    _UNWRITABLE,
    HeuristicEvent,
    RecoveryError,
    RecoveryReport,
    UnparseError,
)
from gramconv.transform import DNF_MAX_ALTERNATIVES, TransformError, TransformStep


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


# the recovery that the one-pass loop replaced, kept verbatim: a token list,
# rule chunks, a parse of each chunk and a last scan for first uses

_NAME_CHAR = "[A-Za-z0-9_-]"
_NAME_RUN = _NAME_CHAR + "+"


class _Token(NamedTuple):
    line: int
    kind: str  # "lex" | "name" | "terminal"
    text: str
    role: str | None = None


def _scanner(notation: NotationSpec) -> tuple[re.Pattern, dict[str, str]]:
    """The notation's token pattern, which matches at every position: a run
    of non-newline whitespace, then a newline, a comment to the end of its
    line, a lexeme, a name run, the end of the text or any other character,
    the first that fits.  Also the role of each lexeme."""
    roles = notation.as_dict()
    role_of: dict[str, str] = {}
    for role, lexeme in sorted(roles.items(), key=lambda item: -len(item[1])):
        if role not in ("line-comment-start", "terminal-end-quote"):
            role_of.setdefault(lexeme, role)
    # longest first; a lexeme made of name characters only counts at a word boundary
    lexemes = "|".join(
        re.escape(lexeme) + (f"(?!{_NAME_CHAR})" if re.fullmatch(_NAME_RUN, lexeme) else "")
        for lexeme in role_of)
    comment = roles.get("line-comment-start")
    alternatives = [r"(?P<nl>\n)",
                    f"(?P<comment>(?={re.escape(comment)})[^\n]*)" if comment else None,
                    f"(?P<lex>{lexemes})", f"(?P<name>{_NAME_RUN})", r"(?P<end>\Z)",
                    "(?P<bad>.)"]
    pattern = r"[^\S\n]*(?:" + "|".join(filter(None, alternatives)) + ")"
    return re.compile(pattern, re.DOTALL), role_of


def _tokenize(text: str, notation: NotationSpec) -> list[_Token]:
    scanner, role_of = _scanner(notation)
    quote_close = notation.get("terminal-end-quote")
    tokens: list[_Token] = []
    append = tokens.append
    token = partial(tuple.__new__, _Token)  # skips NamedTuple's Python-level __new__
    pos = 0
    line = 1
    while True:
        for m in scanner.finditer(text, pos):
            kind = m.lastgroup
            if kind == "lex":
                lexeme = m.group(m.lastindex)
                role = role_of[lexeme]
                if role != "terminal-start-quote":
                    append(token((line, "lex", lexeme, role)))
                    continue
                end = text.find(quote_close, m.end())
                if end == -1:
                    raise RecoveryError(line, "unterminated terminal quote")
                body = text[m.end():end]
                if "\n" in body:
                    raise RecoveryError(line, "terminal quote spans lines")
                append(token((line, "terminal", body, None)))
                pos = end + len(quote_close)
                break  # rescan after the closing quote
            elif kind == "name":
                append(token((line, "name", m.group(m.lastindex), None)))
            elif kind == "nl":
                line += 1
            elif kind == "bad":
                raise RecoveryError(line, f"unexpected character {m.group(m.lastindex)!r}")
        else:
            return tokens



def _name_expr(name: str, leaves: dict) -> Expr:
    value = VALUE_NAMES.get(name)
    return shared_leaf(leaves, Nonterminal, name) if value is None else value


def _parse_rhs(tokens: list[_Token], end_line: int, leaves: dict) -> Expr:
    """A rule body's expression, parsed in one pass.  An operand stays open to
    postfix operators until the next token; it then joins the current
    concatenation, or becomes the separator of a pending separator-list infix.
    An open bracket pushes the enclosing body's state and its closer pops it,
    so nesting costs no recursion.  Its leaves come from the `shared_leaf`
    table `leaves`."""
    stack: list[tuple[_Token, list[Expr], list[Expr], Callable | None]] = []
    alternatives: list[Expr] = []
    parts: list[Expr] = []
    infix = None  # a separator-list constructor waiting for its separator
    operand = None
    stream = chain(tokens, [_Token(end_line, "end", "")])
    for token in stream:
        kind, role = token.kind, token.role
        if operand is not None:
            if role in _POSTFIX:
                operand = _POSTFIX[role](operand)
                continue
            if infix is None:
                parts.append(operand)
            else:
                parts[-1] = infix(parts[-1], operand)
            operand = None
            infix = _INFIX.get(role)
            if infix is not None:
                continue
        if kind == "terminal":
            if not token.text:
                raise RecoveryError(token.line, "empty terminal")
            operand = shared_leaf(leaves, Terminal, token.text)
        elif kind == "name":
            operand = _name_expr(token.text, leaves)
        elif role in _BRACKETS:
            stack.append((token, alternatives, parts, infix))
            alternatives, parts, infix = [], [], None
        elif role == "nonterminal-start":
            name = next(stream)  # never past the end token, which is no name
            if name.kind != "name":
                raise RecoveryError(token.line, "expected a name after nonterminal bracket")
            if next(stream).role != "nonterminal-end":
                raise RecoveryError(token.line, "unbalanced nonterminal brackets")
            operand = _name_expr(name.text, leaves)
        elif infix is not None:
            raise RecoveryError(token.line, "expected an expression" if kind == "end"
                                else f"unexpected {token.text!r}")
        elif role == "definition-separator":
            alternatives.append(seq(*parts))
            parts = []
        elif kind == "end" or role in _CLOSERS:
            alternatives.append(seq(*parts))
            body = choice(*alternatives)
            if not stack:
                if kind == "end":
                    return body
                raise RecoveryError(token.line, f"unbalanced {token.text!r}")
            opener, alternatives, parts, infix = stack.pop()
            if role != _BRACKETS[opener.role]:
                raise RecoveryError(opener.line, "unbalanced "
                                    f"{opener.role.removesuffix('-start')} brackets")
            operand = body if opener.role == "group-start" else opt(body)
        elif role != "concatenation":
            raise RecoveryError(token.line, f"unexpected {token.text!r}")


def _split_rules(tokens: list[_Token], notation: NotationSpec, last_line: int,
                 warnings: list[tuple[int, str]],
                 heuristics: list[HeuristicEvent]) -> list[list[_Token]]:
    if notation.has("terminator"):
        chunks: list[list[_Token]] = []
        current: list[_Token] = []
        for token in tokens:
            if token.kind == "lex" and token.role == "terminator":
                if current:
                    chunks.append(current)
                    current = []
                else:
                    warnings.append((token.line, "stray terminator skipped"))
                    heuristics.append(HeuristicEvent(
                        token.line, "stray-terminator", "skipped an empty rule"))
            else:
                current.append(token)
        if current:
            warnings.append((last_line, "missing terminator before end of input"))
            chunks.append(current)
        return chunks
    # without a terminator, a rule ends where the next line opens one
    chunks = []
    current = []
    for i, token in enumerate(tokens):
        if current and token.line > current[-1].line and _rule_head(tokens, i):
            chunks.append(current)
            current = []
        current.append(token)
    if current:
        chunks.append(current)
    return chunks


def _rule_head(tokens: list[_Token], at: int) -> tuple[str, int] | None:
    """`(name, width)` if a rule opens at `at` with the head `name defining`
    or `<name> defining`, whose `width` tokens precede the body; else None."""
    head = tokens[at:at + 4]
    roles = [token.role for token in head]
    if head[0].kind == "name" and roles[1:2] == ["defining"]:
        return head[0].text, 2
    if roles[0] == "nonterminal-start" and roles[2:] == ["nonterminal-end", "defining"] \
            and head[1].kind == "name":
        return head[1].text, 4
    return None


def _take_lhs(chunk: list[_Token]) -> tuple[str, list[_Token]]:
    head = _rule_head(chunk, 0)
    if head is not None:
        name, width = head
        return name, chunk[width:]
    first = chunk[0]
    if first.role == "defining":
        raise RecoveryError(first.line, "defining symbol with no left-hand side")
    if first.role == "nonterminal-start":
        raise RecoveryError(first.line, "expected '<name> defining-symbol'")
    if first.kind != "name":
        raise RecoveryError(first.line, f"expected a rule, found {first.text!r}")
    raise RecoveryError(first.line, f"expected defining symbol after {first.text!r}")


def recover(text: str, notation: NotationSpec) -> RecoveryReport:
    """Parse grammar text in the given dialect.  Roots are the recovered top
    (defined-but-unused) nonterminals."""
    warnings: list[tuple[int, str]] = []
    heuristics: list[HeuristicEvent] = []
    tokens = _tokenize(text, notation)
    last_line = text.count("\n") + 1
    if not tokens:
        warnings.append((1, "empty input; recovered the empty grammar"))
        return RecoveryReport(Grammar((), ()), warnings, heuristics)
    productions: list[Production] = []
    defined: set[str] = set()
    first_use: dict[str, int] = {}
    leaves: dict = {}  # one leaf per name and terminal text in the grammar
    for chunk in _split_rules(tokens, notation, last_line, warnings, heuristics):
        lhs, rhs_tokens = _take_lhs(chunk)
        line = chunk[0].line
        rhs = _parse_rhs(rhs_tokens, chunk[-1].line, leaves)
        if lhs in defined:
            heuristics.append(HeuristicEvent(
                line, "vertical-redefinition",
                f"{lhs} was already defined; appended another alternative"))
        defined.add(lhs)
        for token in rhs_tokens:
            if token.kind == "name" and token.text not in VALUE_NAMES:
                first_use.setdefault(token.text, token.line)
        productions.append(Production(lhs, rhs))
    for name in sorted(first_use.keys() - defined):
        line = first_use[name]
        warnings.append((line, f"nonterminal {name!r} is used but never defined"))
        heuristics.append(HeuristicEvent(
            line, "undefined-nonterminal", f"kept {name!r} as a plain nonterminal"))
    roots = tuple(sorted(defined - first_use.keys()))
    return RecoveryReport(Grammar(roots, tuple(productions)), warnings, heuristics)



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


def _binds_alone(rel: _Relation) -> bool:
    """Whether `rel` binds on its own, as an empty `_Binding` would find."""
    fwd: dict[str, str] = {}
    rev: dict[str, str] = {}
    for a, b in rel:
        if not _extends(fwd, rev, a, b):
            return False
        fwd[a] = b
        rev[b] = a
    return True


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


class _Buckets(dict):
    """Per strength, the indices of the productions of each key, in
    ascending order, derived from `keys` the first time the strength is
    looked up: the search reads only the weak ones."""

    def __init__(self, keys: dict[str, list[frozenset[Footprint] | None]]) -> None:
        super().__init__()
        self.keys = keys

    def __missing__(self, strength: str) -> dict[frozenset[Footprint], list[int]]:
        buckets: dict[frozenset[Footprint], list[int]] = {}
        for i, key in enumerate(self.keys[strength]):
            if key is not None:
                buckets.setdefault(key, []).append(i)
        self[strength] = buckets
        return buckets


class _StrengthKeys:
    """Per strength (the keys of `classes`, `keys` and `buckets`), each of a
    grammar's productions' classes, its key (their footprints as a set,
    None where it has no classes), and the `_Buckets`, from the
    productions' signatures."""

    def __init__(self, sigs: list[dict[str, Footprint]]) -> None:
        weak: list[_Classes] = []
        strong: list[_Classes | None] = []
        for sig in sigs:
            weak_classes, strong_classes = _weak_and_strong(sig)
            weak.append(weak_classes)
            strong.append(strong_classes)
        self.classes = {"weak": weak, "strong": strong}
        self.keys = {strength: [None if found is None else frozenset(found) for found in classes]
                     for strength, classes in self.classes.items()}
        self.buckets = _Buckets(self.keys)


class _Resolution:
    """State of one nominal resolution: both grammars' signature indexes,
    their per-strength keys and buckets, and a memo of the relations each
    production pair induces."""

    def __init__(self, master: Grammar, servant: Grammar) -> None:
        self.master = _SignatureIndex(master)
        self.servant = _SignatureIndex(servant)
        self.master_keys = _StrengthKeys(self.master.sigs)
        self.servant_keys = _StrengthKeys(self.servant.sigs)
        self._relations: dict[tuple[int, int, str], list[_Relation]] = {}
        self._viable: dict[tuple[int, int, str], list[_Relation]] = {}

    def candidates(self, si: int, strength: str) -> list[int]:
        """Master productions equivalent to servant production `si`."""
        key = self.servant_keys.keys[strength][si]
        return self.master_keys.buckets[strength].get(key, []) if key is not None else []

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


def _copied(binding: _Binding) -> _Binding:
    """`_Binding.copy`, which the trail-based search no longer needs."""
    clone = _Binding()
    clone.fwd = dict(binding.fwd)
    clone.rev = dict(binding.rev)
    return clone


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
            branch = _copied(current)
            for a, b in rel:
                branch.bind(a, b)
            dfs(branch, rest, used_m | {mi})

    dfs(_copied(seed), list(range(len(res.servant.productions))), set())
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


class _Aligner:
    """Alignment of one servant rhs onto one master rhs under a name mapping.

    `walk` returns the steps that rewrite the servant side into the master's
    shape, or None when the two do not align: sequence permutations,
    repetition widenings (+ against *), and bindings of servant nonterminals
    against built-in master values.  Paths address the servant tree as it
    stands when the step applies (parent adjustments come before the steps
    below them)."""

    def __init__(self, mapping: dict[str, str], lhs: str, pos: int) -> None:
        self.mapping = mapping
        self.lhs = lhs
        self.pos = pos

    def walk(self, s: Expr, m: Expr, path: tuple[int, ...]) -> list[TransformStep] | None:
        if isinstance(s, Nonterminal):
            if isinstance(m, Nonterminal):
                return [] if self.mapping.get(s.name) == m.name else None
            # a nonterminal standing where the master has a built-in value
            return [self._set(path, m, s)] if type(m) in VALUE_NAME_OF else None
        if type(s) is type(m) and isinstance(s, (Optional, Star, Plus)):
            return self.walk(s.body, m.body, path + (0,))
        if isinstance(s, (Star, Plus)) and isinstance(m, (Star, Plus)):
            # + against *: widen the servant side onto the master's kind
            inner = self.walk(s.body, m.body, path + (0,))
            rewrapped = Star(s.body) if isinstance(m, Star) else Plus(s.body)
            return None if inner is None else [self._set(path, rewrapped, s)] + inner
        if isinstance(s, Sequence) and isinstance(m, Sequence):
            return self._sequence(s.parts, m.parts, path)
        if isinstance(s, Choice) and isinstance(m, Choice):
            return self._sequence(s.alternatives, m.alternatives, path, permute=False)
        if type(s) is type(m) and isinstance(s, (SepListStar, SepListPlus)):
            item = self.walk(s.item, m.item, path + (0,))
            separator = self.walk(s.separator, m.separator, path + (1,))
            return None if item is None or separator is None else item + separator
        if type(s) is type(m) and isinstance(s, Selectable):
            return self.walk(s.body, m.body, path + (0,)) if s.selector == m.selector else None
        if isinstance(s, Terminal):
            return [] if isinstance(m, Terminal) and s.text == m.text else None
        return [] if type(s) is type(m) else None  # values / epsilon / empty / any

    def _sequence(self, s_parts, m_parts, path,
                  permute: bool = True) -> list[TransformStep] | None:
        """Sequence parts, or choice alternatives with `permute` off, aligned
        position by position; a rule-level sequence may also be permuted."""
        k = len(s_parts)
        if len(m_parts) != k:
            return None
        diagonal = [self.walk(s_parts[i], m_parts[i], path + (i,)) for i in range(k)]
        if None not in diagonal:
            return [step for cell in diagonal for step in cell]
        if path or not permute:
            return None  # permutations are recorded at rule level only
        # a part is walked at the position it moves to, so the chosen order
        # reuses the steps of its cells
        table = [[diagonal[i] if j == i else self.walk(s_parts[i], m_parts[j], (j,))
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


def _expr_from_json(doc, path: str, leaves: dict) -> Expr:
    """`expr_from_json`, with its leaves from the `shared_leaf` table
    `leaves`, looked up once the field has passed its type check."""
    tag = _want(doc, "tag", str, path)
    decoder = _DECODERS.get(tag)
    if decoder is None:
        raise InterchangeError(path, f"unknown expression tag {tag!r}")
    build, spec = decoder
    values: list = []
    for name, kind in spec:
        value = doc.get(name)
        if not isinstance(value, kind):
            _want(doc, name, kind, path)  # raises the missing-field or type error
        if kind is str:
            values.append(value)
        elif kind is dict:
            values.append(_expr_from_json(value, f"{path}.{name}", leaves))
        else:
            for i, kid in enumerate(value):  # a generator would cost a frame per level
                values.append(_expr_from_json(kid, f"{path}.{name}[{i}]", leaves))
    if tag == "n" and values[0] in VALUE_NAMES:
        raise _reserved(values[0], f"{path}.name")
    leaf = _LEAF_CLASS.get(tag)
    if leaf is not None:
        return shared_leaf(leaves, leaf, values[0])
    return build(*values)


def grammar_from_json(doc) -> Grammar:
    leaves: dict = {}  # one leaf per name and terminal text in the grammar
    return _grammar(doc, dict, lambda rhs, path: _expr_from_json(rhs, path, leaves))


def anf_check(g: Grammar) -> list[AnfViolation]:
    """All violated abstract-normal-form conditions (empty list means ANF),
    condition by condition."""
    out: list[AnfViolation] = []
    for prod in g.productions:
        if prod.label is not None:
            out.append(AnfViolation(1, f"rule {prod.lhs} carries label {prod.label!r}"))
        if isinstance(prod.rhs, Choice):
            out.append(AnfViolation(5, f"rule {prod.lhs} is horizontal"))
        for sub in subterms(prod.rhs):
            if isinstance(sub, Selectable):
                out.append(AnfViolation(
                    2, f"rule {prod.lhs} names a subexpression {sub.selector!r}"))
            elif isinstance(sub, Terminal):
                out.append(AnfViolation(
                    3, f"rule {prod.lhs} contains terminal {sub.text!r}"))
            elif isinstance(sub, (SepListStar, SepListPlus)):
                out.append(AnfViolation(
                    6, f"rule {prod.lhs} contains a separator list"))
            for kid in children(sub):
                if isinstance(kid, Choice):
                    out.append(AnfViolation(
                        4, f"rule {prod.lhs} nests a choice under "
                           f"{type(sub).__name__.lower()}"))
    for name in names_in_order(g):
        rules = g.rules_of(name)
        if len(rules) == 1 and _is_trivial_rhs(rules[0].rhs):
            out.append(AnfViolation(
                7, f"{name} is trivially defined as {render_expr(rules[0].rhs)}"))
        flags = [_is_chain_rhs(prod.rhs) for prod in rules]
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


# the rule test of the rewrite phases as it was before each grammar carried
# its rules' class masks

# the unit element seq and choice drop from their children
_UNIT = {Sequence: Epsilon, Choice: Empty}


def _holds(rhs: Expr, classes) -> bool:
    """Whether rhs holds a node of `classes` (a tuple) or a unit child that
    the smart constructors would drop (an epsilon part of a sequence, an
    empty alternative of a choice), found by a walk that stops at the
    first."""
    stack = [rhs]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind in classes:
            return True
        if kind not in _ATOMS:
            kids = children(node)
            unit = _UNIT.get(kind)
            if unit is not None and unit in map(type, kids):
                return True
            stack.extend(kids)
    return False


# the interchange writer and reader as they were before the reader built
# nodes by tag and the writer wrote leaves and rule frames whole


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
    if type(value) is str:
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
    """`dumps(grammar_to_json(g))`, with each rhs left for `dumps` to write."""
    productions = []
    for prod in g.productions:
        if type(prod.rhs) not in _KEYS:
            raise TypeError(f"not an expression: {prod.rhs!r}")
        productions.append({"label": prod.label, "lhs": prod.lhs, "rhs": prod.rhs})
    return dumps({"roots": list(g.roots), "productions": productions})


def _builder():
    """A `json.loads` object hook that returns each well-formed expression
    object as its node, built from its already built children with the
    `_DECODERS` builders and one `shared_leaf` table, and every other
    object unchanged.  It never raises: what it cannot build is left as
    a dict for the checking reader to explain."""
    leaves: dict = {}

    def build(obj: dict):
        tag = obj.get("tag")
        decoder = _DECODERS.get(tag) if type(tag) is str else None
        if decoder is None:
            return obj
        make, spec = decoder
        values: list = []
        for name, kind in spec:
            value = obj.get(name)
            if kind is str:
                if type(value) is not str:
                    return obj
                values.append(value)
            elif kind is dict:  # one child, which the hook has built by now
                if not isinstance(value, Expr):
                    return obj
                values.append(value)
            else:
                if type(value) is not list:
                    return obj
                for kid in value:
                    if not isinstance(kid, Expr):
                        return obj
                values.extend(value)
        leaf = _LEAF_CLASS.get(tag)
        if leaf is None:
            return make(*values)
        text = values[0]
        if not text or (tag == "n" and text in VALUE_NAMES):  # refused by the checks
            return obj
        return shared_leaf(leaves, leaf, text)

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


# unparse as it was before its renderer built children's texts in plain loops


def unparse(g: Grammar, notation: NotationSpec) -> str:
    """Render g in the given dialect; recovery of the output yields g again.
    Grouping is inserted wherever precedence would otherwise reassociate.
    The one walk that writes the text also collects what the dialect cannot
    write, then raises UnparseError for the constructs no dialect writes,
    else for the roles the notation lacks, else for a terminal that holds
    the end quote."""
    roles = notation.as_dict()
    impossible: set[str] = set()
    missing: set[str] = set()
    quote_clash = False
    joiner = f" {roles['concatenation']} " if "concatenation" in roles else " "
    bracket_option = "option-postfix" not in roles and "option-start" in roles

    def lexeme(role: str) -> str:
        text = roles.get(role)
        if text is None:
            missing.add(role)
            return ""
        return text

    def spaced(pieces: list[str], tight: bool) -> str:
        """The pieces, a space between each two.  Inside a group (tight) an
        empty piece, an epsilon alternative or body, leaves no space of its
        own; the layout at rule level is kept as it was first written."""
        return " ".join([piece for piece in pieces if piece] if tight else pieces)

    def grouped(text: str) -> str:
        return spaced([lexeme("group-start"), text, lexeme("group-end")], True)

    def name(text: str) -> str:
        if "nonterminal-start" in roles:
            return f"{roles['nonterminal-start']}{text}{roles['nonterminal-end']}"
        return text

    def render(expr: Expr, need: int, tight: bool) -> str:
        nonlocal quote_clash
        kind = type(expr)
        if kind is Nonterminal:
            return name(expr.name)
        if kind is Terminal:
            quote_close = lexeme("terminal-end-quote")
            if quote_close and quote_close in expr.text:
                quote_clash = True
            return f"{lexeme('terminal-start-quote')}{expr.text}{quote_close}"
        if kind is Choice:
            inner = tight or need > _ALT
            pieces = [lexeme("definition-separator")] * (2 * len(expr.alternatives) - 1)
            pieces[::2] = [render(alt, _SEQ, inner) for alt in expr.alternatives]
            body = spaced(pieces, inner)
            return grouped(body) if need > _ALT else body
        if kind is Sequence:
            inner = tight or need > _SEQ
            body = joiner.join(render(part, _SEP, inner) for part in expr.parts)
            return grouped(body) if need > _SEQ else body
        role = _ROLE_OF.get(kind)
        if role in _INFIX:
            inner = tight or need > _SEP
            body = (f"{render(expr.item, _ATOM, inner)} {lexeme(role)} "
                    f"{render(expr.separator, _ATOM, inner)}")
            return grouped(body) if need > _SEP else body
        if kind is Optional and bracket_option:
            return spaced([roles["option-start"], render(expr.body, _ALT, tight),
                           roles["option-end"]], tight)
        if role is not None:
            return render(expr.body, _ATOM, tight) + lexeme(role)
        if kind is Epsilon:
            return grouped("") if need > _SEQ else ""
        if kind in VALUE_NAME_OF:
            return name(VALUE_NAME_OF[kind])
        if kind is Selectable:
            impossible.add(f"selector {expr.selector!r}")
            return render(expr.body, need, tight)
        impossible.add(_UNWRITABLE[kind])
        return ""

    lines = []
    terminator = roles.get("terminator")
    for prod in g.productions:
        if prod.label is not None:
            impossible.add(f"production label {prod.label!r}")
        line = f"{name(prod.lhs)} {roles['defining']} {render(prod.rhs, _ALT, False)}".rstrip()
        lines.append(f"{line} {terminator}" if terminator else line)
    for unwritten in (impossible, missing, ["terminal-end-quote"] if quote_clash else []):
        if unwritten:
            raise UnparseError(unwritten)
    return "\n".join(lines) + ("\n" if lines else "")


def _spliced(blocks: dict[str, tuple[int, ...]], rules: list[Production], at: int,
             removed: int, added: int) -> dict[str, tuple[int, ...]]:
    """`blocks` after the rules [at, at + removed) were replaced by the
    `added` rules now at [at, at + added) of `rules`."""
    end, shift = at + removed, added - removed
    new: dict[str, list[int]] = {}
    for i in range(at, at + added):
        new.setdefault(rules[i].lhs, []).append(i)
    if not removed and at == len(rules) - added:  # appended: nothing shifts
        out = dict(blocks)
        for lhs, positions in new.items():
            out[lhs] = out.get(lhs, ()) + tuple(positions)
        return out
    out = {}
    ordered, last = True, -1
    for lhs, positions in blocks.items():
        if positions[-1] >= at:
            if positions[0] >= end:
                positions = tuple([i + shift for i in positions]) if shift else positions
            else:
                positions = tuple([i if i < at else i + shift for i in positions
                                   if i < at or i >= end])
        if lhs in new:
            positions = tuple(sorted(positions + tuple(new.pop(lhs))))
        if positions:
            out[lhs] = positions
            ordered = ordered and positions[0] > last
            last = positions[0]
    for lhs, positions in new.items():  # left-hand sides the grammar lacked
        out[lhs] = tuple(positions)
        ordered = ordered and positions[0] > last
        last = positions[0]
    if ordered:
        return out
    return dict(sorted(out.items(), key=lambda item: item[1][0]))


def _reindexed(users: dict[str, tuple[str, ...]], gone: list[Production],
               added: list[Production]) -> dict[str, tuple[str, ...]]:
    """The name index `users` after the rules `gone` were removed and the
    rules `added` added; `users` itself when no entry changes."""
    delta: dict[tuple[str, str], int] = {}
    for sign, rules in ((-1, gone), (1, added)):
        for prod in rules:
            for name in used_names(prod.rhs):
                delta[name, prod.lhs] = delta.get((name, prod.lhs), 0) + sign
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


def name_index(g: Grammar) -> dict[str, tuple[str, ...]]:
    """The name index of g, derived from scratch."""
    users: dict[str, list[str]] = {}
    for prod in g.productions:
        for name in used_names(prod.rhs):
            users.setdefault(name, []).append(prod.lhs)
    return {name: tuple(lhss) for name, lhss in users.items()}


# the three rewriting walks as they were before they built through
# grammar.reassembled


def with_children(expr: Expr, kids) -> Expr:
    """expr with its children replaced by kids, reassembled with the smart
    constructors (so the result is canonical); a leaf is returned as is."""
    put = _PUT.get(type(expr))
    return put(expr, kids) if put is not None else expr


def rebuild(expr: Expr, fn) -> Expr:
    """Rebuild expr bottom-up, applying fn to every node after its children
    have been rebuilt.  Composite nodes are reassembled with the smart
    constructors, so fn may return epsilon/empty to delete a node and the
    surrounding structure renormalizes."""
    get = _GET.get(type(expr))
    if get is not None:
        expr = _PUT[type(expr)](expr, [rebuild(kid, fn) for kid in get(expr)])
    return fn(expr)


def replace_subterm(expr: Expr, old: Expr, new: Expr) -> Expr:
    """Replace every occurrence of the whole subterm `old` with `new`,
    top-down (matched nodes are not descended into)."""
    if type(expr) is type(old) and expr == old:
        return new
    kids = children(expr)
    if not kids:
        return expr
    return with_children(expr, [replace_subterm(kid, old, new) for kid in kids])


def dnf(expr: Expr) -> Expr:
    """Fully distribute sequences over choices, everywhere in the tree.  A
    canonical subtree with nothing to distribute is returned as it is."""
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
    # the smart constructors would drop a unit child
    if all(map(operator.is_, normal, kids)) and UNIT.get(type(expr)) not in map(type, kids):
        return expr
    return with_children(expr, normal)
