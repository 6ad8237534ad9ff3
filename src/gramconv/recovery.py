"""Notation-parametric grammar recovery and unparsing.

`recover` parses grammar text written in the EBNF dialect described by a
notation spec; `unparse` renders a grammar back into such a dialect so that
recovery yields the same grammar again.  Unparsing is one walk over the
rules: the renderer that writes the text also notes each role it needed
and the notation lacks, and each construct no dialect writes, so the roles
it reports missing are exactly the ones its text would use.

Recovery is one pass over the matches of one compiled pattern per notation:
longest match over the spec lexemes (with a word-boundary guard for lexemes
that look like names), a quoted terminal up to its first end quote, then
maximal name runs over letters, digits, `_` and `-`.  It builds no token
objects and copies no rule text: for each match it ends a rule at the
terminator, or, in a dialect without one, where a line opens with
`name defining` or `<name> defining`; reads the left-hand side; parses the
body; and notes the line of each name's first use.  Such a line is read as
body until its head is whole, then taken back.  The right-hand side grammar
is alternation over concatenation over separator-list infixes over postfix
operators; group brackets override.  The open brackets are kept on an
explicit stack, so a body nests as deeply as memory allows.  A scanning
error anywhere in the text wins over an earlier parse error, so after the
first parse error the pass only scans.  The reserved names `str` and `int`
denote the built-in values.

A recovered grammar carries no explicit root declaration, so recovery adopts
the defined-but-never-used nonterminals as roots.  Recovery never aborts on
unknown words (they are plain nonterminals, reported as a warning when
undefined); only structural problems (unbalanced brackets, a defining symbol
without a left-hand side, a reserved name as a left-hand side) are errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

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
    p,
    seq,
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


@lru_cache(maxsize=64)
def _scanner(notation: NotationSpec) -> tuple[re.Pattern, tuple[str, ...]]:
    """The notation's token pattern, which matches at every position: a run
    of whitespace other than newlines and any comment up to the end of the
    line, then a newline, a lexeme, a name run, the end of the text or any
    other character, the first that fits, each in a group of its own.  A
    terminal start quote takes the text up to the first end quote, if there
    is one, in one more group.  Also the role of each group by its index: a
    lexeme's role, or "nl", "terminal", "name", "end" or "bad"."""
    roles = notation.as_dict()
    comment = roles.get("line-comment-start")
    skip = r"[^\S\n]*" + (f"(?:(?={re.escape(comment)})[^\n]*)?" if comment else "")
    groups = [r"(\n)"]
    role_at = ["", "nl"]
    seen: set[str] = set()  # the two halves of a pair may share a lexeme
    # longest first; a lexeme made of name characters only counts at a word boundary
    for role, lexeme in sorted(roles.items(), key=lambda item: -len(item[1])):
        if role in ("line-comment-start", "terminal-end-quote") or lexeme in seen:
            continue
        seen.add(lexeme)
        lexeme = re.escape(lexeme) + (f"(?!{_NAME_CHAR})" if re.fullmatch(_NAME_RUN, lexeme)
                                      else "")
        if role == "terminal-start-quote":
            groups.append(f"({lexeme}(?:(.*?){re.escape(roles['terminal-end-quote'])})?)")
            role_at += ["terminal", ""]
        else:
            groups.append(f"({lexeme})")
            role_at.append(role)
    groups += [f"({_NAME_RUN})", r"(\Z)", "(.)"]
    role_at += ["name", "end", "bad"]
    return re.compile(f"{skip}(?:{'|'.join(groups)})", re.DOTALL), tuple(role_at)


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
# the roles that end a rule
_ENDS = ("terminator", "end")
# the roles that open a rule's head, each with the roles that finish it
_HEADS = {"name": ("defining",),
          "nonterminal-start": ("name", "nonterminal-end", "defining")}


def _closed(alternatives: list[Expr], parts: list[Expr]) -> Expr:
    """The body whose last alternative ends with `parts`; a sequence or
    choice of one is that one, which `seq` and `choice` would copy."""
    alternatives.append(parts[0] if len(parts) == 1 else seq(*parts))
    return alternatives[0] if len(alternatives) == 1 else choice(*alternatives)


def recover(text: str, notation: NotationSpec) -> RecoveryReport:
    """Parse grammar text in the given dialect, in one pass over the
    scanner's matches.  Roots are the recovered top (defined-but-unused)
    nonterminals."""
    scanner, role_at = _scanner(notation)
    terminated = notation.has("terminator")
    warnings: list[tuple[int, str]] = []
    strays: list[HeuristicEvent] = []
    redefinitions: list[HeuristicEvent] = []
    productions: list[Production] = []
    defined: set[str] = set()
    first_use: dict[str, int] = {}
    names: dict[str, Expr] = dict(VALUE_NAMES)  # one leaf per name in the grammar
    terminals: dict[str, Terminal] = {}  # and one per terminal text
    lhs = None  # the rule being read, once its head is
    opening = None  # the rule whose head ends the one being read
    # the body being read: the state of each enclosing open bracket, then its own
    stack: list[tuple[str, int, list[Expr], list[Expr], Callable | None]] = []
    alternatives: list[Expr] = []
    parts: list[Expr] = []
    infix = None  # a separator-list constructor waiting for its separator
    operand = None  # open to postfix operators until the next token
    bracket = 0  # the line of an open nonterminal bracket
    # the roles that would finish a head begun on `head_line`, whether it
    # opened with a bracket, its name and the name's line, and the line of
    # the last token before it
    head: tuple[str, ...] = ()
    bracketed = False
    word = name = ""
    name_line = head_line = rule_line = split_end = 0
    line, latest = 1, 0  # the line the scanner is on, and of the latest token
    error = None  # the first parse error; a scanning error anywhere wins over it
    for m in scanner.finditer(text):
        index = m.lastindex
        role = role_at[index]
        if role == "name":
            word = m[index]
        elif role == "nl":
            line += 1
            continue
        elif role == "terminal":
            word = m[index + 1]
            if word is None:
                raise RecoveryError(line, "unterminated terminal quote")
            if "\n" in word:
                raise RecoveryError(line, "terminal quote spans lines")
        elif role == "bad":
            raise RecoveryError(line, f"unexpected character {m[index]!r}")
        if error is not None:
            continue
        last, latest = latest, line  # the line of the token before this one
        try:
            if head:  # the tokens since `head_line` begin a head
                if role != head[0]:
                    if lhs is None:
                        raise RecoveryError(head_line, "expected '<name> defining-symbol'"
                                            if bracketed
                                            else f"expected defining symbol after {name!r}")
                    head = ()  # the body read them, and goes on
                elif len(head) > 1:
                    head = head[1:]
                    if role == "name":
                        name, name_line = word, line
                    if lhs is None:
                        continue
                elif lhs is None:  # the head is whole: a rule opens
                    head = ()
                    if name in VALUE_NAMES:
                        raise RecoveryError(
                            head_line, f"{name!r} is the reserved name of a built-in value")
                    lhs, rule_line = name, head_line
                    continue
                else:  # the body read a whole head, and ends before it
                    head = ()
                    operand = None
                    if first_use.get(name) == name_line:  # as a first use
                        del first_use[name], names[name]
                    role, last, opening = "end", split_end, name
            if lhs is None:  # a rule must open here
                if role in _HEADS:
                    head, head_line, bracketed = _HEADS[role], line, role != "name"
                    name, name_line = word, line
                elif role == "defining":
                    raise RecoveryError(line, "defining symbol with no left-hand side")
                elif role == "terminator":
                    warnings.append((line, "stray terminator skipped"))
                    strays.append(HeuristicEvent(line, "stray-terminator",
                                                 "skipped an empty rule"))
                elif role != "end":
                    found = word if role == "terminal" else m[index]
                    raise RecoveryError(line, f"expected a rule, found {found!r}")
                elif not last:
                    warnings.append((1, "empty input; recovered the empty grammar"))
                continue
            if not (terminated or head) and line > last and role in _HEADS:
                # a head may begin here; the body reads it until it is whole
                head, head_line, bracketed = _HEADS[role], line, role != "name"
                name, name_line, split_end = word, line, last
            if bracket:
                if operand is not None:
                    if role != "nonterminal-end":
                        raise RecoveryError(bracket, "unbalanced nonterminal brackets")
                    bracket = 0
                    continue
                if role != "name":
                    raise RecoveryError(bracket, "expected a name after nonterminal bracket")
            elif operand is not None:
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
            if role == "name":
                operand = names.get(word)
                if operand is None:
                    operand = names[word] = Nonterminal(word)
                    first_use[word] = line
            elif role == "terminal":
                if not word:
                    raise RecoveryError(line, "empty terminal")
                operand = terminals.get(word) or terminals.setdefault(word, Terminal(word))
            elif role in _BRACKETS:
                stack.append((role, line, alternatives, parts, infix))
                alternatives, parts, infix = [], [], None
            elif role == "nonterminal-start":
                bracket = line
            elif infix is not None:
                if role in _ENDS:
                    raise RecoveryError(last, "expected an expression")
                raise RecoveryError(line, f"unexpected {m[index]!r}")
            elif role == "definition-separator":
                alternatives.append(parts[0] if len(parts) == 1 else seq(*parts))
                parts = []
            elif role in _CLOSERS or role in _ENDS:
                body = _closed(alternatives, parts)
                if stack:
                    opener, at, alternatives, parts, infix = stack.pop()
                    if role != _BRACKETS[opener]:
                        raise RecoveryError(
                            at, f"unbalanced {opener.removesuffix('-start')} brackets")
                    operand = body if opener == "group-start" else opt(body)
                elif role in _CLOSERS:
                    raise RecoveryError(line, f"unbalanced {m[index]!r}")
                else:  # the rule ends
                    alternatives, parts = [], []
                    if role == "end" and terminated:
                        warnings.append((text.count("\n") + 1,
                                         "missing terminator before end of input"))
                    if lhs in defined:
                        redefinitions.append(HeuristicEvent(
                            rule_line, "vertical-redefinition",
                            f"{lhs} was already defined; appended another alternative"))
                    defined.add(lhs)
                    productions.append(p(lhs, body))
                    lhs, opening, rule_line = opening, None, head_line
                    if lhs in VALUE_NAMES:
                        raise RecoveryError(
                            head_line, f"{lhs!r} is the reserved name of a built-in value")
            elif role != "concatenation":
                raise RecoveryError(line, f"unexpected {m[index]!r}")
        except RecoveryError as exc:
            error = exc
    if error is not None:
        raise error
    heuristics = strays + redefinitions
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
        # children are rendered in plain loops, not in a comprehension or a
        # generator, so a level of `( c ... )*` costs two frames: the star's
        # and the sequence's
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
            pieces = []
            for alt in expr.alternatives:
                pieces += (lexeme("definition-separator"), render(alt, _SEQ, inner))
            body = spaced(pieces[1:], inner)
            return grouped(body) if need > _ALT else body
        if kind is Sequence:
            inner = tight or need > _SEQ
            texts = []
            for part in expr.parts:
                texts.append(render(part, _SEP, inner))
            body = joiner.join(texts)
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
