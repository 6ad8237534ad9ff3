"""First-class EBNF dialect definitions.

A notation spec is a partial map from metasymbol roles to concrete lexemes.
The on-disk format (`.edd`) is flat key/value text, one `role: lexeme` per
line, with `#` line comments; a lexeme may be wrapped in double quotes when
it has leading or trailing spaces, a leading `#`, or a double quote at each
end.  The role set is closed: unknown keys are an error, not a warning.

Three operators evolve a spec: rename-metasymbol, introduce-metasymbol and
eliminate-metasymbol.  Retiring a construct role implies a coupled grammar
mutation that migrates grammars written against the old notation; see
`coupled_mutation`.
"""

from __future__ import annotations

from dataclasses import dataclass


class NotationError(ValueError):
    pass


ROLES = (
    "defining",
    "terminator",
    "definition-separator",
    "concatenation",
    "group-start",
    "group-end",
    "option-start",
    "option-end",
    "star-postfix",
    "plus-postfix",
    "option-postfix",
    "terminal-start-quote",
    "terminal-end-quote",
    "nonterminal-start",
    "nonterminal-end",
    "seplist-star",
    "seplist-plus",
    "line-comment-start",
)

# start/end pairs must be present together, and the two halves of one pair
# may share a lexeme (symmetric quotes are the common case)
PAIRED_ROLES = (
    ("group-start", "group-end"),
    ("option-start", "option-end"),
    ("terminal-start-quote", "terminal-end-quote"),
    ("nonterminal-start", "nonterminal-end"),
)


@dataclass(frozen=True)
class NotationSpec:
    roles: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        _validate(dict(self.roles))

    def as_dict(self) -> dict[str, str]:
        return dict(self.roles)

    def get(self, role: str) -> str | None:
        return self.as_dict().get(role)

    def has(self, role: str) -> bool:
        return any(r == role for r, _ in self.roles)


def spec(mapping: dict[str, str]) -> NotationSpec:
    return NotationSpec(tuple(mapping.items()))


def _validate(mapping: dict[str, str]) -> None:
    for role, lexeme in mapping.items():
        if role not in ROLES:
            raise NotationError(f"unknown metasymbol role {role!r}")
        if not lexeme:
            raise NotationError(f"role {role!r} has an empty lexeme")
    if "defining" not in mapping:
        raise NotationError("the 'defining' role is required")
    pairs = {frozenset(pair) for pair in PAIRED_ROLES}
    seen: dict[str, str] = {}
    for role, lexeme in mapping.items():
        other = seen.get(lexeme)
        if other is not None and frozenset((other, role)) not in pairs:
            raise NotationError(
                f"roles {other!r} and {role!r} share the lexeme {lexeme!r}")
        seen[lexeme] = role
    for left, right in PAIRED_ROLES:
        if (left in mapping) != (right in mapping):
            present, absent = (left, right) if left in mapping else (right, left)
            raise NotationError(f"role {present!r} requires its pair {absent!r}")


def parse_spec(doc: str) -> NotationSpec:
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(doc.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise NotationError(f"line {lineno}: expected 'role: lexeme'")
        role, _, value = line.partition(":")
        role = role.strip()
        lexeme = value.strip()
        if len(lexeme) >= 2 and lexeme.startswith('"') and lexeme.endswith('"'):
            lexeme = lexeme[1:-1]
        if role in mapping:
            raise NotationError(f"line {lineno}: duplicate role {role!r}")
        mapping[role] = lexeme
    return spec(mapping)


def format_spec(notation: NotationSpec) -> str:
    lines = []
    for role, lexeme in notation.roles:
        shown = lexeme
        if (shown != shown.strip() or shown.startswith("#")
                or len(shown) >= 2 and shown.startswith('"') and shown.endswith('"')):
            shown = f'"{shown}"'
        lines.append(f"{role}: {shown}")
    return "\n".join(lines) + "\n"


def rename_metasymbol(notation: NotationSpec, role: str, v1: str, v2: str) -> NotationSpec:
    """Change the lexeme of a present role from v1 to v2.  Self-inverse under
    swapped value arguments."""
    mapping = notation.as_dict()
    if role not in mapping:
        raise NotationError(f"cannot rename: role {role!r} is absent")
    if mapping[role] != v1:
        raise NotationError(
            f"cannot rename: role {role!r} is {mapping[role]!r}, not {v1!r}")
    return spec({r: (v2 if r == role else lex) for r, lex in mapping.items()})


def introduce_metasymbol(notation: NotationSpec, role: str, v: str) -> NotationSpec:
    mapping = notation.as_dict()
    if role in mapping:
        raise NotationError(f"cannot introduce: role {role!r} is already present")
    mapping[role] = v
    return spec(mapping)


def eliminate_metasymbol(notation: NotationSpec, role: str, v: str) -> NotationSpec:
    mapping = notation.as_dict()
    if role not in mapping:
        raise NotationError(f"cannot eliminate: role {role!r} is absent")
    if mapping[role] != v:
        raise NotationError(
            f"cannot eliminate: role {role!r} is {mapping[role]!r}, not {v!r}")
    del mapping[role]
    return spec(mapping)


@dataclass(frozen=True)
class RoleChange:
    """One notation evolution step, for deriving the coupled grammar mutation."""

    op: str  # "rename" | "introduce" | "eliminate"
    role: str


def coupled_mutation(change: RoleChange):
    """Grammar mutation implied by a notation change, or None when grammars
    need no migration (pure lexeme renames, introductions, and retirement of
    non-construct roles).

    Retiring group brackets folds every grouped subexpression to a fresh
    nonterminal; retiring a separator-list role rewrites separator lists into
    their explicit encoding.
    """
    from .mutate import Mutation  # local import; mutate depends on transform only

    if change.op != "eliminate":
        return None
    if change.role in ("group-start", "group-end"):
        return Mutation("fold-groups")
    if change.role in ("seplist-star", "seplist-plus"):
        return Mutation("encode-seplists")
    return None
