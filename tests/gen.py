"""Seeded random grammar generators for the property suites.

Three flavors:
  random_grammar   -- anything goes (all constructs, labels, stray names);
                      rule blocks of one nonterminal are kept adjacent
  random_expressible -- restricted to what a textual EBNF dialect can carry
                      (no selectors, no empty/wildcard leaves, no labels,
                      no reserved value names) with roots = tops
  random_anf       -- grammars that already satisfy abstract normal form,
                      for the nominal-resolution oracle tests
  rooted_anf       -- abstract-normal-form grammars of an exact production
                      count, every name defined, for resolution at scale

`renamed_copies` scales a real grammar up to many disjoint copies of it.
"""

from __future__ import annotations

import random

from gramconv.grammar import (
    ANYTHING,
    EMPTY,
    EPSILON,
    VALUE_INT,
    VALUE_STR,
    Expr,
    Grammar,
    Production,
    choice,
    n,
    opt,
    plus,
    rename_expr,
    sel,
    sepplus,
    sepstar,
    seq,
    star,
    t,
)
from gramconv.mutate import anf_check
from gramconv.grammar import tops

NAMES = ["aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh"]
TERMINALS = ["x", "y", "z", "kw", ";;", "=="]
SELECTORS = ["one", "two", "three"]


def _leaf(rng: random.Random, names: list[str], expressible: bool) -> Expr:
    roll = rng.random()
    if roll < 0.55:
        return n(rng.choice(names))
    if roll < 0.70:
        return t(rng.choice(TERMINALS))
    if roll < 0.80:
        return VALUE_STR if rng.random() < 0.5 else VALUE_INT
    if roll < 0.88:
        return EPSILON
    if expressible:
        return n(rng.choice(names))
    return EMPTY if rng.random() < 0.5 else ANYTHING


def random_expr(rng: random.Random, names: list[str], depth: int,
                expressible: bool = False) -> Expr:
    if depth <= 0:
        return _leaf(rng, names, expressible)
    roll = rng.random()
    if roll < 0.30:
        return _leaf(rng, names, expressible)
    if roll < 0.50:
        k = rng.randint(2, 3)
        return seq(*(random_expr(rng, names, depth - 1, expressible)
                     for _ in range(k)))
    if roll < 0.65:
        k = rng.randint(2, 3)
        return choice(*(random_expr(rng, names, depth - 1, expressible)
                        for _ in range(k)))
    if roll < 0.73:
        return star(random_expr(rng, names, depth - 1, expressible))
    if roll < 0.81:
        return plus(random_expr(rng, names, depth - 1, expressible))
    if roll < 0.88:
        return opt(random_expr(rng, names, depth - 1, expressible))
    if roll < 0.94:
        return sepplus(random_expr(rng, names, depth - 1, expressible),
                       random_expr(rng, names, depth - 1, expressible))
    if expressible:
        return sepstar(random_expr(rng, names, depth - 1, expressible),
                       random_expr(rng, names, depth - 1, expressible))
    return sel(rng.choice(SELECTORS),
               random_expr(rng, names, depth - 1, expressible))


def random_grammar(rng: random.Random, max_productions: int = 8,
                   max_depth: int = 4, expressible: bool = False) -> Grammar:
    total = rng.randint(1, max_productions)
    lhs_count = rng.randint(1, min(4, total))
    lhs_names = rng.sample(NAMES, lhs_count)
    pool = lhs_names + rng.sample(NAMES, min(2, len(NAMES) - lhs_count) or 1)
    pool = list(dict.fromkeys(pool))

    productions: list[Production] = []
    remaining = total
    for i, name in enumerate(lhs_names):
        block = 1 if i == lhs_count - 1 else rng.randint(1, max(1, remaining - (lhs_count - i - 1)))
        block = min(block, remaining - (lhs_count - i - 1))
        remaining -= block
        for _ in range(block):
            label = None
            if not expressible and rng.random() < 0.08:
                label = f"l{rng.randint(1, 9)}"
            rhs = random_expr(rng, pool, rng.randint(0, max_depth), expressible)
            productions.append(Production(name, rhs, label))
    # occasionally plant shapes the operator suites look for
    if rng.random() < 0.25 and len(productions) < max_productions:
        host = rng.choice(lhs_names)
        base = random_expr(rng, pool, 1, expressible)
        step = random_expr(rng, pool, 1, expressible)
        block = [Production(host, base)]
        if rng.random() < 0.5:
            block.append(Production(host, seq(n(host), step)))
        else:
            block.append(Production(host, seq(step, n(host))))
        productions = [prod for prod in productions if prod.lhs != host]
        productions.extend(block)
    if rng.random() < 0.25 and len(productions) < max_productions:
        fresh = next((name for name in NAMES if all(prod.lhs != name
                                                    for prod in productions)), None)
        if fresh is not None:
            host = rng.choice([prod.lhs for prod in productions])
            productions.append(Production(fresh, n(host)))

    g = Grammar((), tuple(productions))
    if expressible:
        return Grammar(tuple(sorted(tops(g))), g.productions)
    top_names = sorted(tops(g))
    if top_names and rng.random() < 0.7:
        return Grammar(tuple(top_names), g.productions)
    return g


def random_expressible(rng: random.Random, max_productions: int = 8,
                       max_depth: int = 4) -> Grammar:
    return random_grammar(rng, max_productions, max_depth, expressible=True)


def _marked(rng: random.Random, name: str) -> Expr:
    roll = rng.random()
    if roll < 0.55:
        return n(name)
    if roll < 0.70:
        return star(n(name))
    if roll < 0.85:
        return plus(n(name))
    return opt(n(name))


def random_anf(rng: random.Random, vocab: int = 5) -> Grammar:
    """A grammar that passes the abstract-normal-form check: a single root
    from which everything is reachable, every other defined name used at
    least once, each nonterminal defined either by one non-chain rule or by
    several chain rules."""
    assert 2 <= vocab <= 8
    names = [f"n{i}" for i in range(vocab)]
    defined_count = rng.randint(2, vocab)
    defined = names[:defined_count]
    loose = names[defined_count:]

    # choose a parent j < i for every non-root name so the reference graph
    # stays rooted at names[0]
    must_ref: dict[str, list[str]] = {name: [] for name in defined}
    for i in range(1, defined_count):
        parent = defined[rng.randrange(i)]
        must_ref[parent].append(defined[i])

    productions: list[Production] = []
    for i, name in enumerate(defined):
        refs = list(must_ref[name])
        extras = [cand for cand in defined[1:] + loose if cand != name]
        while rng.random() < 0.4 and extras:
            refs.append(rng.choice(extras))
        chainable = len(refs) >= 2 and len(set(refs)) == len(refs)
        if chainable and rng.random() < 0.4:
            for target in refs:
                productions.append(Production(name, n(target)))
            if rng.random() < 0.3:
                productions.append(Production(
                    name, VALUE_STR if rng.random() < 0.5 else VALUE_INT))
            continue
        pieces = [_marked(rng, ref) for ref in refs]
        while len(pieces) < 2 or rng.random() < 0.3:
            if rng.random() < 0.4 and extras:
                pieces.append(_marked(rng, rng.choice(extras)))
            else:
                pieces.append(VALUE_STR if rng.random() < 0.5 else VALUE_INT)
        rng.shuffle(pieces)
        productions.append(Production(name, seq(*pieces)))

    g = Grammar((defined[0],), tuple(productions))
    assert not anf_check(g), anf_check(g)
    return g


def rooted_anf(rng: random.Random, size: int) -> Grammar:
    """A grammar in abstract normal form with exactly `size` productions:
    every name is defined, either by one sequence rule or by two or three
    chain rules, and is reachable from the root n0 through a parent defined
    before it.  A draw in which a chain-defined name finds too few distinct
    targets is discarded and drawn again from the same generator."""
    while True:
        g = _rooted_anf_draw(rng, size)
        if g is not None:
            assert len(g.productions) == size and not anf_check(g), anf_check(g)
            return g


def _rooted_anf_draw(rng: random.Random, size: int) -> Grammar | None:
    counts: list[int] = []
    while sum(counts) < size:
        left = size - sum(counts)
        chain = left >= 2 and rng.random() < 0.25
        counts.append(rng.randint(2, min(3, left)) if chain else 1)
    names = [f"n{i}" for i in range(len(counts))]

    # a chain-defined parent takes at most as many children as it has rules;
    # each chain name adds at least one free slot, so a parent always exists
    children: dict[str, list[str]] = {name: [] for name in names}
    for i in range(1, len(names)):
        open_parents = [names[j] for j in range(i)
                        if counts[j] == 1 or len(children[names[j]]) < counts[j]]
        children[rng.choice(open_parents)].append(names[i])

    productions: list[Production] = []
    for name, count in zip(names, counts):
        refs = list(children[name])
        others = [cand for cand in names[1:] if cand != name and cand not in refs]
        if count > 1:
            if count - len(refs) > len(others):
                return None
            refs += rng.sample(others, count - len(refs))
            productions.extend(Production(name, n(target)) for target in refs)
            continue
        pieces = [_marked(rng, ref) for ref in refs]
        while len(pieces) < 2 or rng.random() < 0.3:
            if rng.random() < 0.4 and others:
                pieces.append(_marked(rng, rng.choice(others)))
            else:
                pieces.append(VALUE_STR if rng.random() < 0.5 else VALUE_INT)
        rng.shuffle(pieces)
        productions.append(Production(name, seq(*pieces)))
    return Grammar((names[0],), tuple(productions))


def corpus(seed: int, count: int, **kwargs) -> list[Grammar]:
    rng = random.Random(seed)
    return [random_grammar(rng, **kwargs) for _ in range(count)]


def renamed_copies(g: Grammar, k: int) -> Grammar:
    """k disjoint copies of g one after the other; copy i prefixes every
    name with c<i>_, so the rule blocks keep their real sizes."""
    roots: list[str] = []
    rules: list[Production] = []
    for i in range(k):
        mapping = {name: f"c{i}_{name}" for name in g.names}
        roots += [mapping[root] for root in g.roots]
        rules += [Production(mapping[prod.lhs], rename_expr(prod.rhs, mapping), prod.label)
                  for prod in g.productions]
    return Grammar(tuple(roots), tuple(rules))


# ---------------------------------------------------------------------------
# step harvesting for the invertibility suite

from gramconv.grammar import (  # noqa: E402
    Choice,
    Epsilon,
    Empty,
    Nonterminal,
    Plus,
    Selectable,
    Sequence,
    subterms,
    used_names,
    vocabulary,
)
from gramconv.transform import TransformStep, detect_yaccified, dnf  # noqa: E402

# bodies that can vanish into or fuse with their context once inlined
_FUSING = (Epsilon, Empty, Choice, Sequence)


def invertible_steps(g: Grammar) -> list[TransformStep]:
    """One applicable step per operator, each within its bidirectional
    domain and carrying the operands its inverse needs."""
    steps: list[TransformStep] = []
    voc = vocabulary(g)
    names = sorted(voc.defined | voc.used)
    rules_by: dict[str, list[tuple[int, Production]]] = {}
    for i, prod in enumerate(g.productions):
        rules_by.setdefault(prod.lhs, []).append((i, prod))

    if names:
        steps.append(TransformStep("rename", {"from": names[0], "to": "zz99"}))

    for prod in g.productions:
        first = next(iter(subterms(prod.rhs)), None)
        if first is not None:
            steps.append(TransformStep("extract", {"name": "zz98", "expr": first}))
            break

    for name, rules in rules_by.items():
        if len(rules) != 1 or name in g.roots:
            continue
        idx, prod = rules[0]
        body = prod.rhs
        if prod.label is not None or name in used_names(body):
            continue
        if isinstance(body, _FUSING):
            continue
        uses = sum(1 for j, q in enumerate(g.productions) if j != idx
                   for s in subterms(q.rhs) if s == Nonterminal(name))
        if uses == 0:
            continue
        occurs_elsewhere = any(s == body for j, q in enumerate(g.productions)
                               if j != idx for s in subterms(q.rhs))
        if occurs_elsewhere:
            continue
        steps.append(TransformStep("inline", {"name": name, "body": body,
                                              "index": idx}))
        break

    if g.productions:
        prod = g.productions[0]
        steps.append(TransformStep("chain", {"lhs": prod.lhs, "name": "zz97",
                                             "target": prod.rhs}))

    for i, prod in enumerate(g.productions):
        if not isinstance(prod.rhs, Nonterminal):
            continue
        target = prod.rhs.name
        if target in g.roots or len(rules_by.get(target, ())) != 1:
            continue
        tidx, trule = rules_by[target][0]
        if trule.label is not None or target in used_names(trule.rhs):
            continue
        uses = sum(1 for j, q in enumerate(g.productions) if j != tidx
                   for s in subterms(q.rhs) if s == Nonterminal(target))
        if uses != 1:
            continue
        # another rule of the host with the same rhs would make the inverse
        # chain target ambiguous
        twins = any(q.lhs == prod.lhs and q.rhs == trule.rhs
                    for j, q in enumerate(g.productions) if j != i)
        if twins:
            continue
        steps.append(TransformStep("unchain", {"name": target, "lhs": prod.lhs,
                                               "body": trule.rhs, "index": tidx}))
        break

    for name, rules in rules_by.items():
        if len(rules) == 1 and isinstance(rules[0][1].rhs, Choice) \
                and rules[0][1].label is None:
            steps.append(TransformStep("vertical", {"name": name}))
            break

    for name, rules in rules_by.items():
        if len(rules) < 2:
            continue
        idxs = [i for i, _ in rules]
        if idxs != list(range(idxs[0], idxs[0] + len(idxs))):
            continue
        mergeable = all(
            not isinstance(prod.rhs, (Choice, Empty))
            and not (prod.label is None and isinstance(prod.rhs, Selectable))
            for _, prod in rules)
        if mergeable:
            steps.append(TransformStep("horizontal", {"name": name}))
            break

    for name, rules in rules_by.items():
        _, prod = rules[0]
        expanded = dnf(prod.rhs)
        if expanded != prod.rhs:
            steps.append(TransformStep("factor", {"name": name, "from": prod.rhs,
                                                  "to": expanded}))
            if len(rules) == 1:
                steps.append(TransformStep("distribute", {"name": name,
                                                          "before": prod.rhs}))
            break

    for name, rules in rules_by.items():
        found = detect_yaccified(g, name)
        if found is None or len(rules) != 2:
            continue
        idxs = [i for i, _ in rules]
        base_first = name not in used_names(rules[0][1].rhs)
        if idxs[1] == idxs[0] + 1 and base_first \
                and all(prod.label is None for _, prod in rules):
            steps.append(TransformStep("deyaccify", {"name": name,
                                                     "style": found[0]}))
            break

    for name, rules in rules_by.items():
        if len(rules) == 1 and isinstance(rules[0][1].rhs, Plus) \
                and rules[0][1].label is None \
                and not isinstance(rules[0][1].rhs.body, Epsilon) \
                and name not in used_names(rules[0][1].rhs):
            steps.append(TransformStep("yaccify", {"name": name, "style": "left"}))
            break

    return steps
