"""Notation-parametric grammar recovery and unparsing.

`recover` parses grammar text written in the EBNF dialect described by a
notation spec; `unparse` renders a grammar back into such a dialect so that
recovery yields the same grammar again.  Unparsing is one walk over the
rules: the renderer that writes the text also notes each role it needed
and the notation lacks, and each construct no dialect writes, so the roles
it reports missing are exactly the ones its text would use.

Tokenization walks one compiled pattern per notation: longest match over the
spec lexemes (with a word-boundary guard for lexemes that look like names),
then quoted terminals, then maximal name runs over letters, digits, `_` and
`-`.  The right-hand side grammar is alternation over concatenation over
separator-list infixes over postfix operators; group brackets override.  A
rule body is parsed in one loop over its tokens that keeps the open brackets
on an explicit stack, so a body nests as deeply as memory allows.  The
reserved names `str` and `int` denote the built-in values.

A recovered grammar carries no explicit root declaration, so recovery adopts
the defined-but-never-used nonterminals as roots.  Recovery never aborts on
unknown words (they are plain nonterminals, reported as a warning when
undefined); only structural problems (unbalanced brackets, a defining symbol
without a left-hand side) are errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Callable, Iterable, NamedTuple

from .grammar import (
    NODE_TABLE,
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
    VALUE_NAMES,
    choice,
    opt,
    seq,
    shared_leaf,
)
from .notation import NotationSpec

_NAME_CHAR = "[A-Za-z0-9_-]"
_NAME_RUN = _NAME_CHAR + "+"


class RecoveryError(ValueError):
    def __init__(self, line: int, reason: str) -> None:
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class UnparseError(ValueError):
    def __init__(self, missing: Iterable[str]) -> None:
        self.missing = tuple(sorted(missing))
        super().__init__("missing notation roles: " + ", ".join(self.missing))


@dataclass(frozen=True)
class HeuristicEvent:
    line: int
    name: str
    detail: str


@dataclass
class RecoveryReport:
    grammar: Grammar
    warnings: list[tuple[int, str]]
    heuristics: list[HeuristicEvent]


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


# the role that writes each postfix operator and separator-list infix; the
# parser reads a role back with its class's smart constructor
_ROLE_OF = {Star: "star-postfix", Plus: "plus-postfix", Optional: "option-postfix",
            SepListStar: "seplist-star", SepListPlus: "seplist-plus"}
_POSTFIX = {role: NODE_TABLE[cls].build for cls, role in _ROLE_OF.items()
            if len(NODE_TABLE[cls].child_fields) == 1}
_INFIX = {role: NODE_TABLE[cls].build for cls, role in _ROLE_OF.items()
          if len(NODE_TABLE[cls].child_fields) == 2}
# the bracket roles that open a nested body, each with the role that closes it
_BRACKETS = {"group-start": "group-end", "option-start": "option-end"}
_CLOSERS = ("group-end", "option-end", "nonterminal-end")


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


# --------------------------------------------------------------------------
# unparsing

# precedence levels of the rendered forms
_ALT, _SEQ, _SEP, _ATOM = 0, 1, 2, 3
# what no dialect writes
_UNWRITABLE = {Empty: "the empty language", Anything: "the wildcard"}


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
