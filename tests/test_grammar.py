import copy
import importlib
import os
import pickle
import pkgutil
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gramconv.grammar import (
    ANYTHING,
    CLASS_BIT,
    EMPTY,
    EPSILON,
    NESTED_CHOICE,
    NODE_TABLE,
    UNIT_CHILD,
    VALUE_INT,
    VALUE_STR,
    Choice,
    Empty,
    Epsilon,
    Grammar,
    GrammarError,
    Nonterminal,
    Sequence,
    Star,
    Terminal,
    children,
    choice,
    class_bits,
    n,
    p,
    opt,
    plus,
    reachable,
    rebuild,
    render_expr,
    rule_facts,
    render_term,
    sel,
    sepplus,
    sepstar,
    seq,
    star,
    subterms,
    t,
    tops,
    vocabulary,
)

from gramconv.transform import dnf

import oracles
from gen import corpus, random_expr, NAMES


def test_sequence_flattens_and_collapses():
    assert seq(n("a"), seq(n("b"), n("c"))) == seq(n("a"), n("b"), n("c"))
    assert seq(n("a")) == n("a")
    assert seq() == EPSILON
    assert seq(n("a"), EPSILON, n("b")) == seq(n("a"), n("b"))


def test_choice_flattens_and_collapses():
    assert choice(n("a"), choice(n("b"), n("c"))) == choice(n("a"), n("b"), n("c"))
    assert choice(n("a")) == n("a")
    assert choice() == EMPTY
    assert choice(EMPTY, n("a"), n("b")) == choice(n("a"), n("b"))


def test_raw_constructors_reject_denormalized_shapes():
    with pytest.raises(GrammarError):
        Sequence((n("a"),))
    with pytest.raises(GrammarError):
        Sequence((n("a"), Sequence((n("b"), n("c")))))
    with pytest.raises(GrammarError):
        Choice((n("a"),))
    with pytest.raises(GrammarError):
        Terminal("")
    with pytest.raises(GrammarError):
        Nonterminal("")


def test_grammar_rejects_unknown_root():
    with pytest.raises(GrammarError):
        Grammar(("ghost",), (p("a", t("x")),))


def test_constructor_normalization_property():
    rng = random.Random(7)
    for _ in range(300):
        parts = [random_expr(rng, NAMES[:4], 3) for _ in range(rng.randint(2, 4))]
        built = seq(*parts)
        if isinstance(built, Sequence):
            assert not any(isinstance(q, Sequence) for q in built.parts)
            assert len(built.parts) >= 2
        built = choice(*parts)
        if isinstance(built, Choice):
            assert not any(isinstance(q, Choice) for q in built.alternatives)
            assert len(built.alternatives) >= 2


# what rebuild puts in place of a node: deleted leaves, and leaves that
# become sequences and choices to flatten into their parents
_REPLACED = {n("aa"): seq(n("x"), n("y")), n("bb"): choice(n("x"), seq(n("y"), n("z"))),
             n("cc"): EPSILON, n("dd"): EMPTY}


def test_trusted_constructors_build_only_shapes_the_direct_constructors_accept():
    # seq and choice skip the check that Sequence(...) and Choice(...) run,
    # so every node they build must pass it: at least two children, none
    # of its own class
    rng = random.Random(17)
    shapes = 0
    for _ in range(300):
        expr = random_expr(rng, NAMES[:5], 5)
        for image in (expr, dnf(expr), rebuild(expr, lambda node: _REPLACED.get(node, node)),
                      rebuild(expr, lambda node: EPSILON if type(node) is Terminal else node)):
            for sub in subterms(image):
                if type(sub) in (Sequence, Choice):
                    assert type(sub)(children(sub)) == sub
                    shapes += 1
    assert shapes > 1000


def test_vocabulary_fl_master(fl_master):
    voc = vocabulary(fl_master)
    assert voc.defined == {"program", "function", "expr", "apply", "binary", "cond"}
    assert voc.terminals == frozenset()
    assert voc.used == {"function", "expr", "apply", "binary", "cond", "operator"}


def test_vocabulary_empty_and_single_rule():
    assert vocabulary(Grammar()) == vocabulary(Grammar((), ()))
    voc = vocabulary(Grammar((), (p("a", seq(t("x"), n("b"))),)))
    assert voc.defined == {"a"}
    assert voc.used == {"b"}
    assert voc.terminals == {"x"}


def test_vocabulary_covers_every_name_in_tree():
    for g in corpus(11, 60):
        voc = vocabulary(g)
        walked = set()
        for prod in g.productions:
            walked.add(prod.lhs)
            for sub in subterms(prod.rhs):
                if isinstance(sub, Nonterminal):
                    walked.add(sub.name)
        assert voc.defined | voc.used == walked


def test_tops(fl_master):
    assert tops(fl_master) == {"program"}
    assert tops(Grammar((), (p("a", n("a")),))) == set()
    assert tops(Grammar((), (p("a", n("b")), p("b", t("x"))))) == {"a"}


def test_reachable(fl_master):
    assert reachable(fl_master, {"program"}) >= {
        "program", "function", "expr", "apply", "binary", "cond"}
    assert reachable(fl_master, set()) == set()
    g = Grammar((), (p("a", n("b")), p("c", n("d"))))
    assert reachable(g, {"a"}) == {"a", "b"}


def test_values_are_not_names():
    g = Grammar((), (p("a", seq(VALUE_STR, plus(n("b")))),))
    voc = vocabulary(g)
    assert voc.used == {"b"}


def test_rules_of_preserves_order(fl_master):
    rules = fl_master.rules_of("expr")
    assert [r.rhs for r in rules] == [
        VALUE_STR, fl_master.productions[3].rhs, n("apply"), n("binary"), n("cond")]


# -- the node table -----------------------------------------------------------


def _one_of_each_class():
    from gramconv.grammar import (
        ANYTHING, VALUE_INT, opt, sel, sepplus, sepstar, star)
    return [EPSILON, EMPTY, ANYTHING, VALUE_STR, VALUE_INT, t("x"), n("a"),
            sel("s", n("a")), seq(n("a"), t("x")), choice(n("a"), t("x")),
            opt(n("a")), star(n("a")), plus(n("a")),
            sepstar(n("a"), t(",")), sepplus(n("a"), t(","))]


def _recursive_preorder(expr):
    # the reference walk reads the dataclass fields, not the node table
    import dataclasses
    from gramconv.grammar import Expr
    yield expr
    for f in dataclasses.fields(expr):
        value = getattr(expr, f.name)
        for kid in value if isinstance(value, tuple) else (value,):
            if isinstance(kid, Expr):
                yield from _recursive_preorder(kid)


def test_node_table_covers_every_expression_class():
    from gramconv.grammar import NODE_TABLE, Expr
    samples = _one_of_each_class()
    assert {type(e) for e in samples} == set(NODE_TABLE) == set(Expr.__subclasses__())


def test_no_node_and_no_production_carries_an_instance_dict():
    from gramconv.grammar import NODE_TABLE
    samples = _one_of_each_class() + [p("a", n("b"), "l")]
    assert {type(e) for e in samples} == set(NODE_TABLE) | {type(samples[-1])}
    for value in samples:
        assert not hasattr(value, "__dict__"), type(value).__name__
        with pytest.raises(AttributeError):
            object.__setattr__(value, "extra", 1)  # no slot to hold it


def test_with_children_of_children_is_identity():
    from gramconv.grammar import children, with_children
    for expr in _one_of_each_class():
        assert with_children(expr, children(expr)) is expr
    for g in corpus(31, 60) + corpus(32, 60, expressible=True):
        for prod in g.productions:
            for sub in subterms(prod.rhs):
                assert with_children(sub, children(sub)) is sub


def test_with_children_renormalizes():
    from gramconv.grammar import with_children
    assert with_children(seq(n("a"), n("b")), [EPSILON, n("b")]) == n("b")
    assert with_children(choice(n("a"), n("b")), [choice(n("c"), n("d")), n("b")]) \
        == choice(n("c"), n("d"), n("b"))
    assert with_children(n("a"), []) == n("a")


# -- rewrites hand back what they do not change ------------------------------


def _planted(rng, expr):
    """expr with unit children that the direct constructors keep: an
    epsilon part in some of its sequences, an empty alternative in some of
    its choices (the smart constructors of their parents carry them up
    when they flatten)."""
    def plant(node):
        if type(node) is Sequence and rng.random() < 0.4:
            at = rng.randrange(len(node.parts) + 1)
            return Sequence(node.parts[:at] + (EPSILON,) + node.parts[at:])
        if type(node) is Choice and rng.random() < 0.4:
            return Choice(node.alternatives + (EMPTY,))
        return node
    return oracles.rebuild(expr, plant)


def _rewrite_draws():
    """Canonical right-hand sides from `tests/gen` corpora and
    `random_expr`, each with a copy that holds unit children."""
    rng = random.Random(3200)
    canonical = [prod.rhs for g in corpus(3201, 120) + corpus(3202, 60, expressible=True)
                 for prod in g.productions]
    canonical += [random_expr(rng, NAMES[:5], 5) for _ in range(300)]
    return [(expr, _planted(rng, expr)) for expr in canonical], rng


def _renamed(mapping):
    return lambda node: n(mapping[node.name]) \
        if type(node) is Nonterminal and node.name in mapping else node


def test_rewriting_walks_agree_with_the_walks_they_replaced():
    from gramconv.grammar import rename_expr, replace_subterm
    from gramconv.transform import TransformError
    draws, rng = _rewrite_draws()
    planted = units = 0
    for canonical, with_units in draws:
        planted += with_units != canonical
        for expr in (canonical, with_units):
            for fn in (lambda node: node, lambda node: _REPLACED.get(node, node),
                       lambda node: EPSILON if type(node) is Terminal else node):
                assert rebuild(expr, fn) == oracles.rebuild(expr, fn)
            mapping = {rng.choice(NAMES[:5]): "zz"}
            assert rename_expr(expr, mapping) == oracles.rebuild(expr, _renamed(mapping))
            subs = list(subterms(expr))
            for old in (rng.choice(subs), rng.choice(subs), t("absent")):
                for new in (n("zz"), EPSILON, EMPTY, seq(n("y"), n("z")), choice(n("y"), n("z"))):
                    assert replace_subterm(expr, old, new) \
                        == oracles.replace_subterm(expr, old, new)
            # a rewrite drops every unit child, wherever it sits
            units += bool(rule_facts(expr)[0] & UNIT_CHILD)
            assert not rule_facts(rebuild(expr, lambda node: node))[0] & UNIT_CHILD
            try:
                want = oracles.dnf(expr)
            except TransformError:
                with pytest.raises(TransformError):
                    dnf(expr)
                continue
            assert dnf(expr) == want
            assert not rule_facts(want)[0] & UNIT_CHILD
    assert planted == units >= 200


def test_a_rewrite_that_changes_nothing_hands_back_its_input():
    from gramconv.grammar import occurs, rename_expr, replace_subterm
    from gramconv.transform import TransformError
    draws, rng = _rewrite_draws()
    shared = 0
    for expr, _ in draws:
        assert rebuild(expr, lambda node: node) is expr
        assert replace_subterm(expr, t("absent"), n("q")) is expr
        assert rename_expr(expr, {"unused": "q"}) is expr
        try:
            distributed = dnf(expr)
        except TransformError:
            continue
        assert dnf(distributed) is distributed
        # every subtree of the result that holds no occurrence of the new
        # subterm (a name no draw uses) is the input's own object
        old = rng.choice(list(subterms(expr)))
        result = replace_subterm(expr, old, n("zz"))
        assert result == oracles.replace_subterm(expr, old, n("zz"))
        mine = {id(sub) for sub in subterms(expr)}
        for sub in subterms(result):
            if not occurs(n("zz"), sub):
                assert id(sub) in mine, (expr, old, sub)
                shared += bool(children(sub))
    assert shared >= 300


def test_a_unit_child_is_dropped_also_under_unchanged_siblings():
    from gramconv.grammar import rename_expr, replace_subterm, with_children
    from gramconv.transform import _replace_at_path
    for direct, canonical in ((Sequence((EPSILON, n("a"), n("b"))), seq(n("a"), n("b"))),
                              (Choice((EMPTY, n("a"), n("b"))), choice(n("a"), n("b")))):
        # the unit child directly, and two levels under a parent whose
        # other children the rewrites leave alone
        deep = seq(n("x"), star(direct), n("y"))
        for expr, want in ((direct, canonical), (deep, seq(n("x"), star(canonical), n("y")))):
            images = [rebuild(expr, lambda node: node), dnf(expr),
                      replace_subterm(expr, t("absent"), n("q")),
                      rename_expr(expr, {"unused": "q"})]
            if expr is direct:
                images += [with_children(expr, children(expr)),
                           _replace_at_path(expr, [1], n("a"))]
            for image in images:
                assert image == want and image != expr
                assert not rule_facts(image)[0] & UNIT_CHILD
                if expr is deep:
                    assert image.parts[0] is deep.parts[0] and image.parts[2] is deep.parts[2]


def test_subterms_is_the_recursive_preorder():
    from gen import random_grammar
    rng = random.Random(5)
    for _ in range(200):
        g = random_grammar(rng, expressible=rng.random() < 0.5)
        for prod in g.productions:
            assert list(subterms(prod.rhs)) == list(_recursive_preorder(prod.rhs))


def test_subterms_walks_deep_nesting_without_recursion():
    from gramconv.grammar import star as star_
    expr = n("a")
    for _ in range(5000):
        expr = star_(seq(n("b"), expr))
    assert sum(1 for _ in subterms(expr)) == 1 + 5000 * 3


def test_rule_facts_read_deep_nesting_without_recursion():
    expr = n("a")
    for _ in range(10_000):
        expr = star(seq(n("b"), expr))
    facts = rule_facts(expr)
    assert facts[0] == class_bits((Star, Sequence, Nonterminal))
    assert sorted(facts[1]) == ["a", "b"]
    assert rule_facts(expr) is facts  # stored on the node: asked again, it is not walked


# a digest of the names each rule of a corpus uses, as `rule_facts` gives them
_NAMES_DIGEST = """
import hashlib, sys
sys.path[:0] = sys.argv[1:]
from gen import corpus
from gramconv.grammar import rule_facts
names = [rule_facts(prod.rhs)[1]
         for g in corpus(11, 200, max_productions=12) for prod in g.productions]
print(hashlib.sha256(repr(names).encode()).hexdigest())
"""


def test_the_names_a_rule_uses_come_in_one_order_under_every_hash_seed():
    package = Path(importlib.import_module("gramconv").__file__)
    paths = [str(package.parents[1]), str(Path(__file__).parent)]
    digests = set()
    for seed in ("0", "1", "2"):
        done = subprocess.run([sys.executable, "-c", _NAMES_DIGEST, *paths],
                              env=dict(os.environ, PYTHONHASHSEED=seed),
                              capture_output=True, text=True, timeout=120, check=True)
        digests.add(done.stdout)
    assert len(digests) == 1, digests


def test_stored_facts_are_invisible():
    # two equal nodes of each class, facts stored on one only: nothing that
    # reads a node's fields can tell them apart, and neither has a dict
    from dataclasses import fields
    from gramconv.interchange import serialize
    for stored, bare in zip(_one_of_each_class(), _one_of_each_class()):
        assert type(stored) is type(bare)
        facts = rule_facts(stored)
        if type(stored) in NODE_TABLE and NODE_TABLE[type(stored)].child_fields:
            assert stored is not bare
            assert getattr(stored, "_facts", None) is facts
            assert getattr(bare, "_facts", None) is None
        assert stored == bare and bare == stored and hash(stored) == hash(bare)
        assert repr(stored) == repr(bare)
        assert fields(stored) == fields(bare)
        assert serialize(Grammar(("a",), (p("a", stored),))) == serialize(
            Grammar(("a",), (p("a", bare),)))
        assert not hasattr(stored, "__dict__") and not hasattr(bare, "__dict__")


def _fact_corpus():
    """200 generated grammars, half with their rules shuffled so that rule
    blocks of one nonterminal are scattered."""
    from gen import random_anf, rooted_anf
    rng = random.Random(17)
    out = corpus(41, 40) + corpus(42, 30, expressible=True)
    out += [random_anf(rng, rng.randint(2, 6)) for _ in range(15)]
    out += [rooted_anf(rng, rng.choice((4, 8, 12))) for _ in range(15)]
    for g in list(out):
        rules = list(g.productions)
        rng.shuffle(rules)
        out.append(Grammar(g.roots, tuple(rules)))
    return out


def _walk_reachable(g, start):
    found = set(start)
    while True:
        more = {sub.name for prod in g.productions if prod.lhs in found
                for sub in subterms(prod.rhs) if isinstance(sub, Nonterminal)}
        if more <= found:
            return found
        found |= more


def test_stored_facts_agree_with_a_fresh_walk():
    from dataclasses import fields
    rng = random.Random(18)
    for g in _fact_corpus():
        blocks = {}
        for i, prod in enumerate(g.productions):
            blocks.setdefault(prod.lhs, []).append(i)
        assert list(g.blocks) == list(blocks)
        assert {lhs: list(at) for lhs, at in g.blocks.items()} == blocks
        for name in list(blocks) + ["missing"]:
            assert g.rules_of(name) == tuple(prod for prod in g.productions
                                             if prod.lhs == name)
        walked = [sub for prod in g.productions for sub in subterms(prod.rhs)]
        used = {sub.name for sub in walked if isinstance(sub, Nonterminal)}
        voc = vocabulary(g)
        assert voc.defined == set(blocks)
        assert voc.used == used
        assert voc.terminals == {sub.text for sub in walked if isinstance(sub, Terminal)}
        assert g.names == set(blocks) | used
        assert tops(g) == set(blocks) - used
        start = rng.sample(sorted(g.names), min(2, len(g.names)))
        for names in (g.roots, start):
            assert reachable(g, names) == _walk_reachable(g, names)
        twin = Grammar(tuple(g.roots), tuple(g.productions))
        assert twin == g and hash(twin) == hash((g.roots, g.productions))
        assert repr(twin) == f"Grammar(roots={g.roots!r}, productions={g.productions!r})"
    assert [f.name for f in fields(Grammar)] == ["roots", "productions"]


def _walked_facts(g):
    """defined, used and terminal names of g by a fresh walk of its rules."""
    walked = [sub for prod in g.productions for sub in subterms(prod.rhs)]
    return ({prod.lhs for prod in g.productions},
            {sub.name for sub in walked if isinstance(sub, Nonterminal)},
            {sub.text for sub in walked if isinstance(sub, Terminal)})


def _assert_facts_match_a_walk(g):
    defined, used, terminals = _walked_facts(g)
    assert g.names == defined | used
    voc = vocabulary(g)
    assert (voc.defined, voc.used, voc.terminals) == (defined, used, terminals)
    assert tops(g) == defined - used


def test_lazy_facts_agree_with_a_walk_at_every_normalize_anf_step():
    # each intermediate grammar of the replayed trace is checked, which
    # derives its facts, so every extract step starts from a parent with
    # derived facts and carries them over instead of deriving them
    from gramconv.mutate import Mutation, mutate
    from gramconv.transform import apply_step
    carried = 0
    for g in corpus(43, 100, max_productions=12):
        current = g
        _assert_facts_match_a_walk(current)
        for step in mutate(g, Mutation("normalize-anf")).trace:
            current = apply_step(current, step)
            carried += step.op == "extract" and "_users" in vars(current)
            _assert_facts_match_a_walk(current)
    assert carried > 20


def test_extract_carries_facts_that_agree_with_a_walk():
    # normalize-anf removes terminals before it extracts, so extract here
    # every composite subterm of grammars that keep theirs
    from gramconv.transform import extract, fresh_name
    carried = 0
    for g in corpus(46, 100):
        _assert_facts_match_a_walk(g)
        composites = {sub for prod in g.productions for sub in subterms(prod.rhs)
                      if not isinstance(sub, (Nonterminal, Terminal))}
        for sub in sorted(composites, key=repr):
            folded = extract(g, fresh_name("x", g.names), sub)
            carried += "_users" in vars(folded)
            _assert_facts_match_a_walk(folded)
    assert carried > 100


def _index_by_name(users):
    """A name index with each entry as a sorted list, so that two indexes
    compare whatever order their entries hold."""
    return {name: sorted(lhss) for name, lhss in users.items()}


def test_a_node_of_every_class_pickles_and_copies_as_itself():
    from gramconv.interchange import dumps
    nodes = _one_of_each_class()
    assert {type(node) for node in nodes} == set(NODE_TABLE)
    for node in nodes:
        rule_facts(node)  # a composite node stores its facts; no copy carries them
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(node, protocol))
            assert type(again) is type(node) and again == node, (node, protocol)
            assert dumps(again) == dumps(node)
            assert getattr(again, "_facts", None) is None
            assert rule_facts(again) == rule_facts(node)
        assert copy.copy(node) is node
        assert copy.deepcopy(node) is node


def test_a_pickled_node_is_checked_again_by_its_class():
    broken = object.__new__(Terminal)
    object.__setattr__(broken, "text", "")  # past the check that Terminal("") runs
    with pytest.raises(GrammarError, match="terminal text must be non-empty"):
        pickle.loads(pickle.dumps(broken))


def _assert_facts_are_fresh(g):
    """g's facts, carried or derived, equal those the constructor derives,
    and each rule's facts, read from its rhs, those the uncached walk gives."""
    fresh = Grammar(g.roots, g.productions)
    assert list(g.blocks.items()) == list(fresh.blocks.items())
    for prod in g.productions:
        mask, names = rule_facts(prod.rhs)
        walked_mask, walked_names = oracles.rule_facts(prod.rhs)
        assert mask == walked_mask, prod
        # a tuple of distinct names, those a walk of its rhs finds
        assert type(names) is tuple and len(set(names)) == len(names)
        assert set(names) == set(walked_names) == {
            sub.name for sub in subterms(prod.rhs) if isinstance(sub, Nonterminal)}
    assert set(g._users) == set(fresh._users)
    for name, found in g._users.items():
        assert type(found) is tuple and type(fresh._users[name]) is tuple  # one entry shape
        assert sorted(g.users_of(name)) == sorted(fresh.users_of(name))
    # the carried index is the one a derivation by the uncached walk gives
    assert _index_by_name(g._users) == _index_by_name(oracles.name_index(g))
    assert g.names == fresh.names
    assert vocabulary(g) == vocabulary(fresh)
    assert tops(g) == tops(fresh)


def _random_step(rng, g):
    """A step of a random operator with arguments drawn from g; many miss
    their operator's precondition, and slots and positions may be one past
    the end."""
    from gramconv.grammar import children
    from gramconv.transform import TransformStep, dnf, fresh_name
    names = sorted(g.names) + ["zz"]
    lhs = rng.choice(list(g.blocks) or ["zz"])
    rules = g.rules_of(lhs)
    pos = rng.randrange(len(rules) + 1)
    body = rules[min(pos, len(rules) - 1)].rhs if rules else EPSILON
    sub = rng.choice(list(subterms(body)))
    path, node = [], body
    while children(node) and rng.random() < 0.6:
        path.append(rng.randrange(len(children(node))))
        node = children(node)[path[-1]]
    fresh = fresh_name("f", g)
    undefined = sorted(g.names - set(g.blocks)) or [fresh]
    last = g.productions[-1].lhs if g.productions else fresh
    expr = random_expr(rng, names, rng.randint(0, 2))
    slot = rng.choice([None, rng.randrange(len(g.productions) + 1)])
    parts = len(body.parts) if isinstance(body, Sequence) else 1
    args = {
        "rename": {"from": rng.choice(names), "to": fresh},
        "extract": {"name": fresh, "expr": sub, "scope": rng.choice([None, lhs]),
                    "index": slot},
        "inline": {"name": rng.choice(names)},
        "chain": {"lhs": lhs, "name": fresh, "target": body, "index": slot},
        "unchain": {"name": rng.choice(names)},
        "vertical": {"name": lhs},
        "horizontal": {"name": lhs},
        "factor": {"name": lhs, "from": sub, "to": dnf(sub)},
        "distribute": {"name": lhs},
        "deyaccify": {"name": lhs},
        "yaccify": {"name": lhs, "style": rng.choice(["left", "right"])},
        "set-node": {"lhs": lhs, "pos": pos, "path": path, "expr": expr},
        "set-label": {"lhs": lhs, "pos": pos, "label": rng.choice([None, "l1"])},
        "set-roots": {"roots": rng.sample(names, rng.randint(0, min(2, len(names))))},
        "define": {"name": rng.choice([fresh, rng.choice(undefined)]), "rhs": expr},
        "eliminate": {"name": lhs},
        "insert-rule": rng.choice([
            {"lhs": rng.choice([lhs, fresh]), "pos": pos, "rhs": expr},
            # a rule appended to the grammar's last block, at the end
            {"lhs": last, "pos": len(g.blocks.get(last, ())), "rhs": expr}]),
        "remove-rule": {"lhs": lhs, "pos": pos},
        "permute": {"lhs": lhs, "pos": pos,
                    "order": rng.sample(range(1, parts + 1), parts)},
    }
    op = rng.choice(sorted(args))
    return TransformStep(op, args[op])


def test_carried_facts_equal_a_fresh_derivation_at_every_step():
    # the traces of every mutation kind, then seeded scripts over every
    # operator, replayed step by step; half the grammars have their rules
    # shuffled, so that blocks are scattered and splices cut through them.
    # A rule appended to a block that has rules is drawn by insert-rule,
    # since define refuses a name that is defined
    from gramconv.mutate import MUTATION_KINDS, Mutation, mutate
    from gramconv.transform import _OPS, TransformError, apply_step
    rng = random.Random(47)
    grammars = corpus(47, 40, max_productions=14)
    for g in list(grammars):
        rules = list(g.productions)
        rng.shuffle(rules)
        grammars.append(Grammar(g.roots, tuple(rules)))
    scripts = []
    for i, g in enumerate(grammars):
        for kind in MUTATION_KINDS:
            params = {"convention": "CamelCase"} if kind == "disciplined-rename" else {}
            if kind == "extract-subgrammar":
                params = {"roots": list(g.blocks)[i % len(g.blocks):][:1]}
            try:
                scripts.append((g, mutate(g, Mutation(kind, params)).trace))
            except ValueError:
                pass
    applied, carried = {}, {}
    appended = 0  # rules appended, at the end of the grammar, to a block that has rules
    for g in grammars:
        current, steps = g, []
        for _ in range(400):
            if len(steps) == 40:
                break
            step = _random_step(rng, current)
            try:
                current = apply_step(current, step)
            except TransformError:
                continue
            steps.append(step)
        scripts.append((g, steps))
    for g, steps in scripts:
        current = g
        _assert_facts_are_fresh(current)  # derives the index, so the next step carries it
        for step in steps:
            child = apply_step(current, step)
            key = step.op + (" scoped" if step.args.get("scope") else "")
            applied[key] = applied.get(key, 0) + 1
            carried[key] = carried.get(key, 0) + ("_users" in vars(child))
            if step.op in ("set-node", "set-label", "set-roots", "factor", "distribute",
                           "permute"):
                assert child.blocks is current.blocks  # no rule moved
            if step.op in ("define", "insert-rule"):
                lhs = step.args.get("name", step.args.get("lhs"))
                appended += (lhs in current.blocks
                             and child.blocks[lhs][-1] == len(current.productions))
            _assert_facts_are_fresh(child)
            current = child
    assert {key.split()[0] for key in applied} == set(_OPS)
    # every step carries the index its parent had derived
    assert carried == applied
    for key in ("set-node", "set-label", "extract", "extract scoped", "vertical",
                "insert-rule", "remove-rule", "inline", "rename"):
        assert carried[key] >= 20, (key, carried)
    assert carried["define"] >= 10 and appended >= 20, (carried, appended)


def test_an_edit_that_changes_an_lhs_derives_the_blocks_again(monkeypatch):
    from gramconv import grammar
    h = Grammar(("a",), (p("a", opt(n("b"))), p("b", t("x")), p("c", n("a")), p("b", n("c"))))
    h.names  # derives the index, and with it each rule's facts, so the edit carries it
    edited = h.edit({1: p("c", t("x")), 3: p("d", n("c"))})
    assert list(edited.blocks) == ["a", "c", "d"]
    assert "_users" in vars(edited)
    _assert_facts_are_fresh(edited)
    # a rewrite that changes an lhs and keeps its rhs, and a rewrite, a
    # removal and an insertion in one edit: only the new composite right-hand
    # sides are walked
    starred, selected = star(choice(n("a"), t("y"))), sel("s", n("b"))
    walks = []
    walk = grammar._walk_facts
    monkeypatch.setattr(grammar, "_walk_facts", lambda expr: walks.append(expr) or walk(expr))
    spliced = h.edit({0: p("e", h.productions[0].rhs), 3: p("b", starred)},
                     at=1, removed=2, insert=(p("f", seq(n("a"), EPSILON)),
                                              p("f", selected), p("b", EMPTY)))
    assert sorted(map(id, walks)) == sorted(map(id, (starred, selected)))
    monkeypatch.undo()
    assert list(spliced.blocks) == ["e", "f", "b"] and len(spliced.productions) == 5
    assert "_users" in vars(spliced)
    _assert_facts_are_fresh(spliced)


def test_a_splice_carries_what_the_parent_derivation_gives():
    # seeded random splices, each checked against the blocks and the name
    # index the parent's derivation gives (kept in oracles): every shift
    # sign, blocks scattered across the splice, fresh and existing left-hand
    # sides inserted, rules the splice puts back, whole blocks removed, and
    # splices at the start and at the end
    rng = random.Random(53)
    seen = dict.fromkeys(("shift<0", "shift=0", "shift>0", "straddled", "fresh lhs mid-grammar",
                          "put back", "block removed", "at start", "at end"), 0)
    for g in corpus(53, 60, max_productions=14):
        rules = list(g.productions)
        rng.shuffle(rules)
        g = Grammar((), tuple(rules))
        g.names  # derives the index, so edits carry it
        for _ in range(12):
            count = len(g.productions)
            at = rng.randint(0, count)
            removed = rng.randint(0, min(4, count - at))
            cut = list(g.productions[at:at + removed])
            lhss = list(g.blocks) + [f"f{len(g.productions)}"]
            insert = [p(rng.choice(lhss), random_expr(rng, NAMES[:6], rng.randint(0, 2)))
                      for _ in range(rng.randint(0, 3))]
            if cut and rng.random() < 0.4:  # some of the cut rules, put back
                insert += rng.sample(cut, rng.randint(1, len(cut)))
                rng.shuffle(insert)
            child = g.edit(at=at, removed=removed, insert=tuple(insert))
            after = list(g.productions)
            after[at:at + removed] = insert
            expected = oracles._spliced(g.blocks, after, at, removed, len(insert))
            assert list(child.blocks.items()) == list(expected.items())
            reindexed = oracles._reindexed(oracles.name_index(g), cut, insert)
            assert _index_by_name(child._users) == _index_by_name(reindexed) == _index_by_name(
                oracles.name_index(child))
            _assert_facts_are_fresh(child)
            shift = len(insert) - removed
            seen["shift<0" if shift < 0 else "shift=0" if shift == 0 else "shift>0"] += 1
            seen["straddled"] += any(ps[0] < at <= ps[-1] for ps in g.blocks.values())
            seen["fresh lhs mid-grammar"] += at < count and any(
                prod.lhs not in g.blocks for prod in insert)
            seen["put back"] += any(prod in cut for prod in insert)
            seen["block removed"] += len(child.blocks) < len(g.blocks)
            seen["at start"] += at == 0
            seen["at end"] += at + removed == count
            g = child
    assert min(seen.values()) >= 20, seen


def test_eliminating_a_scattered_block_walks_no_kept_rule(monkeypatch):
    # six renamed copies of a draw whose first block has 28 of its 29 rules,
    # shuffled: eliminating one copy's block splices from its first rule to
    # its last, and puts back the 144 rules between them
    from gen import renamed_copies
    from gramconv import grammar
    from gramconv.transform import eliminate
    g = renamed_copies(corpus(9, 17, max_productions=30)[16], 6)
    rules = list(g.productions)
    random.Random(5).shuffle(rules)
    g = Grammar(g.roots, tuple(rules))
    g.names  # derives the index, and with it each rule's facts
    positions = g.blocks["c3_ee"]
    assert len(g.productions) == 174 and len(positions) == 28
    assert positions[-1] - positions[0] + 1 - len(positions) == 144
    walks = []
    walk = grammar._walk_facts
    monkeypatch.setattr(grammar, "_walk_facts", lambda expr: walks.append(expr) or walk(expr))
    child = eliminate(g, "c3_ee")
    assert walks == []
    monkeypatch.undo()
    # each kept rule is its parent's rule object, whose rhs holds its facts
    kept = set(map(id, g.productions))
    assert len(child.productions) == 146 and all(id(prod) in kept for prod in child.productions)
    _assert_facts_are_fresh(child)


def test_trusted_constructors_build_what_the_classes_build():
    from dataclasses import fields
    from gramconv.grammar import Production
    kids = (n("a"), t("x"), star(n("b")))
    for cls, kind in NODE_TABLE.items():
        # the values of cls's fields, in field order, which puts its other
        # fields before its children, as its constructor takes them
        values = [kids if kind.variadic else kids[i] if f.name in kind.child_fields else f"v{i}"
                  for i, f in enumerate(fields(cls))]
        built = kind.build(*(values[0] if kind.variadic else values))
        direct = cls(*values)
        assert type(built) is cls
        assert built == direct and hash(built) == hash(direct) and repr(built) == repr(direct)
        assert fields(built) == fields(direct)
        assert not hasattr(built, "__dict__")
    for args in (("a", seq(n("b"), t("x"))), ("a", n("b"), "l")):
        built, direct = p(*args), Production(*args)
        assert type(built) is Production
        assert built == direct and hash(built) == hash(direct) and repr(built) == repr(direct)
        assert fields(built) == fields(direct)
    with pytest.raises(GrammarError, match="production left-hand side must be non-empty"):
        p("", n("b"))


def _defined_mask(expr) -> int:
    """The class mask of expr from its definition, over `subterms`."""
    mask = 0
    for sub in subterms(expr):
        kinds = {type(kid) for kid in children(sub)}
        mask |= CLASS_BIT[type(sub)]
        if Choice in kinds:
            mask |= NESTED_CHOICE
        if (type(sub) is Sequence and Epsilon in kinds
                or type(sub) is Choice and Empty in kinds):
            mask |= UNIT_CHILD
    return mask


def test_class_masks_follow_their_definition():
    # rules of every construct, unit children built by the direct
    # constructors, and nests that raise each flag deep down
    exprs = [prod.rhs for g in corpus(48, 200, max_productions=12) for prod in g.productions]
    nest = n("y")
    for _ in range(50):
        nest = star(seq(n("y"), nest))
    exprs += [Sequence((n("a"), EPSILON)), Choice((EMPTY, t("x"))),
              star(Sequence((EPSILON, n("b")))), opt(choice(n("a"), n("b"))),
              seq(n("a"), choice(n("b"), t("c"))), nest, star(Choice((nest, EMPTY))),
              star(seq(nest, opt(choice(n("a"), nest)))), sepstar(n("a"), Choice((t(","), EMPTY)))]
    seen = 0
    for expr in exprs:
        mask, names = rule_facts(expr)  # and the names, from the same walk
        assert mask == _defined_mask(expr), expr
        assert len(set(names)) == len(names) and set(names) == {
            sub.name for sub in subterms(expr) if isinstance(sub, Nonterminal)}
        seen |= mask
    assert seen == class_bits(NODE_TABLE) | UNIT_CHILD | NESTED_CHOICE


def test_reading_a_grammar_stores_facts_on_no_rhs(data_dir):
    # a node stores its facts when they are first asked of it, and reading
    # asks for none
    from gramconv.interchange import deserialize, serialize
    from gramconv.notation import parse_spec
    from gramconv.recovery import recover
    notation = parse_spec((data_dir / "factorial.edd").read_text(encoding="utf-8"))
    read = recover((data_dir / "fl_master.ebnf").read_text(encoding="utf-8"), notation).grammar
    again = deserialize(serialize(read))
    assert again == read
    for g in (read, again):
        assert "_users" not in vars(g)
        assert all(getattr(sub, "_facts", None) is None
                   for prod in g.productions for sub in subterms(prod.rhs))
    g = Grammar(("a",), (p("a", n("b")), p("b", t("x"))))
    with pytest.raises(GrammarError, match="declared root 'a' is neither defined nor used"):
        g.edit(at=0, removed=1)


def test_a_root_that_is_only_used_is_accepted():
    g = Grammar(("b",), (p("a", seq(n("b"), t("x"))),))
    assert g.names == {"a", "b"}
    assert tops(g) == {"a"}


def test_a_root_neither_defined_nor_used_fails_at_construction():
    with pytest.raises(GrammarError, match="declared root 'z' is neither defined nor used"):
        Grammar(("z",), (p("a", n("b")),))
    with pytest.raises(GrammarError, match="declared root 'z' is neither defined nor used"):
        Grammar(("a", "z"), (p("a", n("b")),))


def test_deriving_the_facts_leaves_repr_eq_and_hash_alone():
    for g in corpus(44, 50):
        before = (repr(g), hash(g))
        twin = Grammar(g.roots, g.productions)
        _assert_facts_match_a_walk(g)
        assert (repr(g), hash(g)) == before
        assert g == twin and twin == g and hash(twin) == hash(g)
        assert repr(twin) == repr(g)


def test_facts_derived_from_several_threads_at_once_agree():
    # a thread may read the used names while another is deriving them, and
    # the facts of one shared rhs while another is walking it
    import sys
    import threading
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for g in corpus(45, 20, max_productions=12):
            want = _walked_facts(g)
            # a copy of g's rules that no thread has yet asked about
            shared = oracles.rebuild(seq(*[prod.rhs for prod in g.productions]),
                                     lambda node: node)
            assert getattr(shared, "_facts", None) is None
            mask, names = oracles.rule_facts(shared)
            want += ((mask, frozenset(names)),)
            start = threading.Barrier(8)
            seen = []

            def read():
                start.wait(timeout=10)
                voc = vocabulary(g)
                facts = rule_facts(shared)
                seen.append((voc.defined, voc.used, voc.terminals,
                             (facts[0], frozenset(facts[1]))))
            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert seen == [want] * 8
    finally:
        sys.setswitchinterval(interval)


# one expression of every class, then nestings that need brackets
@pytest.mark.parametrize("expr, infix, term", [
    (EPSILON, "ε", "epsilon"),
    (EMPTY, "φ", "empty"),
    (ANYTHING, "α", "any"),
    (VALUE_STR, "str", "str"),
    (VALUE_INT, "int", "int"),
    (t("x"), '"x"', '"x"'),
    (n("a"), "a", "a"),
    (sel("tag", seq(n("a"), n("b"))), "tag::(a b)", "sel(tag, seq([a, b]))"),
    (seq(n("a"), choice(n("b"), t("x"))), 'a (b | "x")', 'seq([a, choice([b, "x"])])'),
    (choice(seq(n("a"), n("b")), EPSILON), "a b | ε", "choice([seq([a, b]), epsilon])"),
    (opt(plus(VALUE_INT)), "int+?", "?(+(int))"),
    (star(choice(n("a"), ANYTHING)), "(a | α)*", "*(choice([a, any]))"),
    (sepstar(n("a"), t(",")), '{a ","}*', 'sepstar(a, ",")'),
    (sepplus(seq(n("a"), n("b")), choice(t(","), t(";"))), '{(a b) ("," | ";")}+',
     'sepplus(seq([a, b]), choice([",", ";"]))'),
])
def test_render_every_expression_class_in_both_styles(expr, infix, term):
    assert render_expr(expr) == infix
    assert render_term(expr) == term


def test_render_rejects_a_non_expression():
    with pytest.raises(TypeError, match="not an expression"):
        render_expr("a")
    with pytest.raises(TypeError, match="not an expression"):
        render_term(3)


# every node class once, with leaf texts that hold format fields and quotes
ALL_CLASSES = choice(
    seq(sel("tag", star(choice(n("a"), EPSILON))), plus(opt(t('{0}"'))), n("{b}")),
    sepstar(seq(VALUE_STR, VALUE_INT), seq(ANYTHING, star(EMPTY))),
    sepplus(sepstar(n("a"), t(",")), sel("s", seq(n("c"), n("d")))),
    opt(sel("o", choice(n("a"), n("b")))),
)


def test_renderers_write_what_the_isinstance_renderers_wrote():
    exprs = list(subterms(ALL_CLASSES))
    assert {type(expr) for expr in exprs} == set(NODE_TABLE)
    for seed, expressible in ((47, False), (48, True)):
        exprs += [prod.rhs for g in corpus(seed, 300, expressible=expressible)
                  for prod in g.productions]
    for expr in exprs:
        assert render_expr(expr) == oracles.render_expr(expr)
        assert render_term(expr) == oracles.render_term(expr)


def test_the_grammar_submodule_is_not_shadowed():
    # a package attribute named like the submodule would be what this binds
    import gramconv.grammar as G
    assert G is sys.modules["gramconv.grammar"]
    assert G.Grammar is Grammar


def test_every_submodule_imports_as_its_module():
    # `import gramconv.x as X` binds the package attribute x, so a function
    # exported from the package under a submodule's name would be bound
    import gramconv
    import gramconv.mutate as M
    assert M is sys.modules["gramconv.mutate"]
    names = [info.name for info in pkgutil.iter_modules(gramconv.__path__)]
    assert {"grammar", "mutate", "converge", "cli"} <= set(names)
    for name in names:
        module = importlib.import_module(f"gramconv.{name}")
        assert getattr(gramconv, name) is module, name
