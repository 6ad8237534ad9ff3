"""Seeded inputs for the benchmark workloads, and the references they are
checked against.

Every generator takes a `random.Random` and the `gramconv.grammar` module to
build with.  Set-up is timed from a fresh import of the package, so no
gramconv name is bound when this module is imported: objects built with the
classes of an earlier import would not be recognised by a later one.
"""

from __future__ import annotations

import random
from collections import Counter

WEAK = {"1": "1", "?": "?", "*": "*", "+": "*"}

# chain definitions are told apart only by how many of their rules point at
# nonterminals and which built-in values they offer, so each master uses
# every (nonterminal rules, str rule, int rule) shape at most once
CHAIN_SHAPES = ((2, 0, 0), (3, 0, 0), (1, 1, 0), (1, 0, 1), (2, 1, 0),
                (2, 0, 1), (1, 1, 1), (2, 1, 1))

WORDS = ("expr", "stmt", "decl", "block", "term", "factor", "param", "type",
         "field", "item", "clause", "entry", "value", "list", "body", "head")
KEYWORDS = ("if", "then", "else", "while", "do", "end", "begin", "return",
            ";", ",", ":=", "(", ")", "+", "-", "*")


def _leaf(G, kind: str, name: str | None = None):
    if kind == "str":
        return G.VALUE_STR
    if kind == "int":
        return G.VALUE_INT
    return G.n(name)


def _marked(G, leaf, marker: str):
    if marker == "?":
        return G.opt(leaf)
    if marker == "*":
        return G.star(leaf)
    if marker == "+":
        return G.plus(leaf)
    return leaf


# --------------------------------------------------------------------------
# converge-ladder: rooted ANF masters and the servants planted from them


def _rule_shape(pieces) -> tuple:
    return tuple(sorted((kind, WEAK[marker]) for kind, _, marker in pieces))


def _pieces(rhs) -> list[tuple[str, str | None, str]]:
    """The (kind, name, marker) pieces of a flat ANF rule."""
    out = []
    for piece in (rhs.parts if type(rhs).__name__ == "Sequence" else (rhs,)):
        marker = {"Optional": "?", "Star": "*", "Plus": "+"}.get(type(piece).__name__, "1")
        leaf = piece.body if marker != "1" else piece
        kind = {"ValueStr": "str", "ValueInt": "int", "Nonterminal": "n"}[type(leaf).__name__]
        out.append((kind, getattr(leaf, "name", None), marker))
    return out


def weak_profiles(g) -> dict[str, tuple]:
    """Per defined name, the multiset of its rules' shapes: for every piece
    of a rule, whether it is a nonterminal or which built-in value, with its
    repetition marker and + read as *.  A renaming that carries the servant
    onto the master maps every name to one with the same profile, so when
    the master's profiles are pairwise distinct that renaming is unique."""
    shapes: dict[str, list] = {}
    for prod in g.productions:
        shapes.setdefault(prod.lhs, []).append(_rule_shape(_pieces(prod.rhs)))
    return {name: tuple(sorted(rules)) for name, rules in shapes.items()}


def has_unique_mapping(g) -> bool:
    profiles = weak_profiles(g)
    return len(set(profiles.values())) == len(profiles)


class LadderPlan:
    """One rooted ANF master and its rules as lists of (kind, name, marker)
    pieces, so the servant can be derived piece by piece."""

    def __init__(self, rng: random.Random, size: int, G) -> None:
        shapes = list(CHAIN_SHAPES)
        rng.shuffle(shapes)
        kinds: list[tuple | None] = [None]  # None: one sequence rule
        rules = 1
        while rules < size:
            left = size - rules
            fits = [s for s in shapes if sum(s) <= left]
            if fits and len(kinds) % 5 == 2:
                shape = fits[0]
                shapes.remove(shape)
                kinds.append(shape)
                rules += sum(shape)
            else:
                kinds.append(None)
                rules += 1
        self.names = [f"m{i}" for i in range(len(kinds))]
        capacity = [2 if kind is None else kind[0] for kind in kinds]
        children: list[list[str]] = [[] for _ in kinds]
        for i in range(1, len(kinds)):
            parents = [j for j in range(i) if len(children[j]) < capacity[j]]
            children[rng.choice(parents)].append(self.names[i])

        self.rules: list[tuple[str, list[tuple[str, str | None, str]]]] = []
        seen: set[tuple] = set()
        for i, kind in enumerate(kinds):
            for _attempt in range(200):
                drawn = (self._sequence_rule(rng, i, children[i]) if kind is None
                         else self._chain_rules(rng, i, children[i], kind))
                profile = tuple(sorted(_rule_shape(pieces) for pieces in drawn))
                if profile not in seen:
                    break
            else:
                raise RuntimeError("no distinct profile found; raise the retry count")
            seen.add(profile)
            self.rules.extend((self.names[i], pieces) for pieces in drawn)
        self.master = G.Grammar((self.names[0],), tuple(
            G.Production(lhs, self.build(G, pieces)) for lhs, pieces in self.rules))

    def _others(self, i: int) -> list[str]:
        return [name for j, name in enumerate(self.names) if j not in (0, i)]

    def _sequence_rule(self, rng, i, children):
        pieces = [("n", child, rng.choice("11*+?")) for child in children]
        others = self._others(i)
        if others and len(pieces) < 2:
            pieces.append(("n", rng.choice(others), rng.choice("11*+?")))
        while len(pieces) < 4:
            pieces.append((rng.choice(("str", "int")), None, rng.choice("111*+")))
        rng.shuffle(pieces)
        return [pieces]

    def _chain_rules(self, rng, i, children, shape):
        count, with_str, with_int = shape
        targets = list(children)
        spare = [name for name in self._others(i) if name not in targets]
        rng.shuffle(spare)
        targets += spare[:count - len(targets)]
        rules = [[("n", target, "1")] for target in targets]
        if with_str:
            rules.append([("str", None, "1")])
        if with_int:
            rules.append([("int", None, "1")])
        rng.shuffle(rules)
        return rules

    @staticmethod
    def build(G, pieces, rename=None):
        rename = rename or {}
        return G.seq(*(_marked(G, _leaf(G, kind, rename.get(name, name)), marker)
                       for kind, name, marker in pieces))


def ladder_instance(rng: random.Random, size: int, weak_share: float, G):
    """(master, servant, planted renaming).  The servant is the master
    renamed, with a `weak_share` of its repetition-marked rules flipping one
    + against *, some sequences permuted, production order shuffled, and a
    few de-normalizing edits that deyaccify-all and normalize-anf undo: one
    rule pair yaccified, one chain definition folded into a choice, one
    label, one selector and two terminals."""
    plan = LadderPlan(rng, size, G)
    if not has_unique_mapping(plan.master):
        raise RuntimeError("ladder master admits more than one mapping")
    image = [f"x{k:03d}" for k in range(len(plan.names))]
    rng.shuffle(image)
    phi = dict(zip(plan.names, image))

    rules = [(lhs, list(pieces)) for lhs, pieces in plan.rules]
    marked = [i for i, (_, pieces) in enumerate(rules)
              if any(m in "*+" for _, _, m in pieces)]
    for i in rng.sample(marked, round(weak_share * len(marked))):
        pieces = rules[i][1]
        at = rng.choice([k for k, (_, _, m) in enumerate(pieces) if m in "*+"])
        kind, name, marker = pieces[at]
        pieces[at] = (kind, name, "+" if marker == "*" else "*")
    for _, pieces in rules:
        if len(pieces) > 1 and rng.random() < 0.3:
            rng.shuffle(pieces)

    counts = Counter(lhs for lhs, _ in rules)
    single = [i for i, (lhs, pieces) in enumerate(rules)
              if counts[lhs] == 1 and len(pieces) >= 2]
    out: list = []  # (lhs, rhs, label) in servant names
    handled: set[int] = set()

    # yaccify one sequence rule that has a starred piece: {A -> base A'}
    yaccable = [i for i in single
                if any(m == "*" for _, _, m in rules[i][1])]
    for i in rng.sample(yaccable, min(1, len(yaccable))):
        lhs, pieces = rules[i]
        at = next(k for k, (_, _, m) in enumerate(pieces) if m == "*")
        kind, name, _ = pieces[at]
        base = pieces[:at] + pieces[at + 1:]
        if len(base) == 1 and base[0] == (kind, name, "1"):
            continue  # A -> B B* deyaccifies to B+, a different rule
        rules[i] = (lhs, base + [pieces[at]])
        out.append((phi[lhs], plan.build(G, base, phi), None))
        out.append((phi[lhs], G.seq(G.n(phi[lhs]),
                                    _leaf(G, kind, phi.get(name))), None))
        handled.add(i)

    # fold one chain definition into a single horizontal rule
    chains = sorted({lhs for lhs, _ in rules if counts[lhs] > 1})
    for lhs in rng.sample(chains, min(1, len(chains))):
        members = [i for i, (name, _) in enumerate(rules) if name == lhs]
        out.append((phi[lhs], G.choice(*(plan.build(G, rules[i][1], phi)
                                         for i in members)), None))
        handled.update(members)

    plain = [i for i in single if i not in handled]
    chosen = rng.sample(plain, min(4, len(plain)))
    terminals, selector, label = chosen[:2], chosen[2:3], chosen[3:4]
    for i, (lhs, pieces) in enumerate(rules):
        if i in handled:
            continue
        parts = [_marked(G, _leaf(G, kind, phi.get(name)), marker)
                 for kind, name, marker in pieces]
        if i in terminals:
            parts.insert(rng.randrange(len(parts) + 1), G.t(rng.choice(KEYWORDS)))
        if i in selector:
            at = rng.randrange(len(parts))
            parts[at] = G.sel(rng.choice(WORDS), parts[at])
        out.append((phi[lhs], G.seq(*parts), "l1" if i in label else None))
    rng.shuffle(out)
    servant = G.Grammar((phi[plan.names[0]],), tuple(
        G.Production(lhs, rhs, lab) for lhs, rhs, lab in out))
    return plan.master, servant, phi


# --------------------------------------------------------------------------
# normalize-corpus: grammars far from abstract normal form


class _CorpusExprs:
    """Rule bodies built from constructs of bounded size, so that the work a
    rule causes varies little from seed to seed."""

    def __init__(self, rng: random.Random, names: list[str], G) -> None:
        self.rng, self.names, self.G = rng, names, G

    def leaf(self):
        rng, G = self.rng, self.G
        roll = rng.random()
        if roll < 0.6:
            return G.n(rng.choice(self.names))
        if roll < 0.85:
            return G.t(rng.choice(KEYWORDS))
        return G.VALUE_STR if roll < 0.93 else G.VALUE_INT

    def item(self):
        rng, G = self.rng, self.G
        roll = rng.random()
        if roll < 0.30:
            return self.leaf()
        if roll < 0.42:
            return G.star(self.leaf())
        if roll < 0.52:
            return G.plus(G.seq(self.leaf(), self.leaf()))
        if roll < 0.62:
            return G.opt(self.leaf())
        if roll < 0.74:
            ctor = G.sepplus if rng.random() < 0.5 else G.sepstar
            return ctor(self.leaf(), G.t(rng.choice((",", ";", "|"))))
        if roll < 0.86:
            return G.sel(rng.choice(WORDS), self.leaf())
        # a choice under a repetition is folded into a fresh nonterminal
        return G.star(G.choice(self.leaf(), self.leaf()))

    def body(self, choices: bool = True):
        parts = [self.item() for _ in range(3)]
        if choices and self.rng.random() < 0.3:
            parts[self.rng.randrange(3)] = self.G.choice(self.leaf(), self.leaf())
        return self.G.seq(*parts)


# definitions cycle through this mix: of every nine rules, three are single
# rules, two horizontal choices, two a vertical block and two a yacc pair
CORPUS_KINDS = ("single", "horizontal", "single", "vertical", "single", "yacc",
                "horizontal")


def corpus_grammar(rng: random.Random, size: int, G):
    """A grammar of `size` productions mixing single rules, horizontal
    choices, vertical rule blocks and yacc-style recursive pairs, with
    labels, selectors, separator lists, terminals and built-in values."""
    plan: list[str] = []
    rules = 0
    while rules < size:
        kind = CORPUS_KINDS[len(plan) % len(CORPUS_KINDS)]
        if kind in ("vertical", "yacc") and size - rules < 2:
            kind = "single"
        plan.append(kind)
        rules += 2 if kind in ("vertical", "yacc") else 1
    names = [f"{WORDS[i % len(WORDS)]}{i}" for i in range(len(plan))]
    exprs = _CorpusExprs(rng, names[1:], G)
    productions = []
    for name, kind in zip(names, plan):
        if kind == "single":
            bodies = [exprs.body()]
        elif kind == "horizontal":
            bodies = [G.choice(exprs.body(False), exprs.body(False), exprs.leaf())]
        elif kind == "vertical":
            bodies = [exprs.body(), exprs.body()]
        else:
            step = exprs.item()
            recursive = (G.seq(G.n(name), step) if rng.random() < 0.5
                         else G.seq(step, G.n(name)))
            bodies = [exprs.item(), recursive]
        for body in bodies:
            label = f"l{rng.randint(1, 9)}" if rng.random() < 0.1 else None
            productions.append(G.Production(name, body, label))
    return G.Grammar((names[0],), tuple(productions))


# --------------------------------------------------------------------------
# ingest-text: grammar documents written in a committed EBNF dialect


def read_edd(text: str) -> dict[str, str]:
    """Roles of an `.edd` notation file: `role: lexeme` lines, `#`
    comments, optional double quotes around a lexeme."""
    roles = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        role, _, lexeme = line.partition(":")
        lexeme = lexeme.strip()
        if len(lexeme) >= 2 and lexeme[0] == lexeme[-1] == '"':
            lexeme = lexeme[1:-1]
        roles[role.strip()] = lexeme
    return roles


ALT, SEQ, SEP, ATOM = 0, 1, 2, 3


class TextWriter:
    """Writes a grammar in a dialect the way the dialect's documentation
    lays it out: one rule per line, `lhs <defining> rhs <terminator>`,
    single spaces between symbols, and group brackets only where the
    precedence of alternation (lowest), concatenation, separator lists and
    postfix operators (highest) requires them."""

    def __init__(self, roles: dict[str, str]) -> None:
        self.roles = roles

    def group(self, text: str) -> str:
        return f"{self.roles['group-start']} {text} {self.roles['group-end']}"

    def expr(self, e, need: int) -> str:
        kind = type(e).__name__
        roles = self.roles
        if kind == "Nonterminal":
            return e.name
        if kind in ("ValueStr", "ValueInt"):
            return "str" if kind == "ValueStr" else "int"
        if kind == "Terminal":
            return roles["terminal-start-quote"] + e.text + roles["terminal-end-quote"]
        if kind == "Choice":
            body = f" {roles['definition-separator']} ".join(
                self.expr(alt, SEQ) for alt in e.alternatives)
            return self.group(body) if need > ALT else body
        if kind == "Sequence":
            body = " ".join(self.expr(part, SEP) for part in e.parts)
            return self.group(body) if need > SEQ else body
        if kind in ("SepListStar", "SepListPlus"):
            lexeme = roles["seplist-star" if kind == "SepListStar" else "seplist-plus"]
            body = f"{self.expr(e.item, ATOM)} {lexeme} {self.expr(e.separator, ATOM)}"
            return self.group(body) if need > SEP else body
        postfix = {"Star": "star-postfix", "Plus": "plus-postfix",
                   "Optional": "option-postfix"}[kind]
        return self.expr(e.body, ATOM) + roles[postfix]

    def rule(self, lhs: str, rhs_text: str) -> str:
        return f"{lhs} {self.roles['defining']} {rhs_text} {self.roles['terminator']}"


class _DocExprs:
    """Rule bodies of bounded size: one to three alternatives, each a
    sequence of two to four items, each item a leaf or one construct over
    leaves.  Constructs the dialect cannot write are not drawn."""

    def __init__(self, rng, names, G, roles) -> None:
        self.rng, self.names, self.G = rng, names, G
        self.terminals = "terminal-start-quote" in roles
        self.options = "option-postfix" in roles
        self.seplists = "seplist-star" in roles

    def leaf(self):
        rng, G = self.rng, self.G
        roll = rng.random()
        if self.terminals and roll < 0.25:
            return G.t(rng.choice(KEYWORDS))
        if roll < 0.85:
            return G.n(rng.choice(self.names))
        return G.VALUE_STR if roll < 0.93 else G.VALUE_INT

    def item(self):
        rng, G = self.rng, self.G
        roll = rng.random()
        if roll < 0.40:
            return self.leaf()
        if roll < 0.52:
            return G.star(self.leaf())
        if roll < 0.60:
            return G.plus(self.leaf())
        if roll < 0.70:
            return G.star(G.seq(self.leaf(), self.leaf()))
        if roll < 0.80:
            return G.choice(self.leaf(), self.leaf())
        if self.options and roll < 0.90:
            return G.opt(self.leaf())
        if self.seplists:
            ctor = G.sepstar if rng.random() < 0.5 else G.sepplus
            return ctor(self.leaf(), self.leaf())
        return G.plus(G.seq(self.leaf(), self.leaf()))

    def rhs(self):
        rng, G = self.rng, self.G
        return G.choice(*(G.seq(*(self.item() for _ in range(rng.randint(2, 4))))
                          for _ in range(rng.choice((1, 1, 2, 3)))))


def ingest_document(rng: random.Random, rules: int, roles: dict[str, str], G,
                    deep: int = 0):
    """(text, roots, productions) for a document of `rules` rules in the
    dialect given by `roles`.  With `deep` > 0 one more rule nests `deep`
    groups, each a sequence closed by a star; it is written and built
    without recursion, since the point is what the reader does with it."""
    writer = TextWriter(roles)
    names = [f"{WORDS[i % len(WORDS)]}_{i}" for i in range(max(2, rules // 2))]
    exprs = _DocExprs(rng, names[1:], G, roles)
    productions = []
    lines = []
    for i in range(rules):
        lhs = names[i] if i < len(names) else rng.choice(names)
        rhs = exprs.rhs()
        productions.append(G.Production(lhs, rhs))
        lines.append(writer.rule(lhs, writer.expr(rhs, ALT)))
    if deep:
        inner, outer = names[1], names[-1]
        rhs = G.n(outer)
        for _ in range(deep):
            rhs = G.star(G.seq(G.n(inner), rhs))
        productions.append(G.Production("nested", rhs))
        star, (start, end) = roles["star-postfix"], (roles["group-start"],
                                                     roles["group-end"])
        body = f"{start} {inner} " * deep + outer + f" {end}{star}" * deep
        lines.append(writer.rule("nested", body))
    used = {leaf.name for prod in productions for leaf in leaves(prod.rhs)
            if type(leaf).__name__ == "Nonterminal"}
    roots = tuple(sorted({prod.lhs for prod in productions} - used))
    return "\n".join(lines) + "\n", roots, tuple(productions)


def children(e) -> tuple:
    kind = type(e).__name__
    if kind == "Sequence":
        return e.parts
    if kind == "Choice":
        return e.alternatives
    if kind in ("SepListStar", "SepListPlus"):
        return (e.item, e.separator)
    if kind in ("Optional", "Star", "Plus", "Selectable"):
        return (e.body,)
    return ()


def leaves(e):
    """The leaves of an expression, without recursion."""
    stack = [e]
    while stack:
        node = stack.pop()
        kids = children(node)
        if not kids:
            yield node
        stack.extend(kids)


_SCALARS = {"Nonterminal": "name", "Terminal": "text", "Selectable": "selector"}


def same_expr(a, b) -> bool:
    """Structural equality without recursion, so that deeply nested
    expressions can be compared."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        kind = type(x).__name__
        if kind != type(y).__name__:
            return False
        field = _SCALARS.get(kind)
        if field is not None and getattr(x, field) != getattr(y, field):
            return False
        xs, ys = children(x), children(y)
        if len(xs) != len(ys):
            return False
        stack.extend(zip(xs, ys))
    return True


def same_grammar(g, roots, productions) -> bool:
    return (tuple(g.roots) == tuple(roots)
            and len(g.productions) == len(productions)
            and all(p.lhs == q.lhs and p.label == q.label and same_expr(p.rhs, q.rhs)
                    for p, q in zip(g.productions, productions)))
