import random

import pytest

from gramconv.converge import (
    SEARCH_MAX_BINDINGS,
    Footprint,
    MatchError,
    NominalMapping,
    ResolutionAmbiguity,
    ResolutionError,
    footprint,
    guided_converge,
    nominal_resolution,
    pair_resolution,
    prodsig,
    render_match_report,
    render_prodsig_table,
    sig_metrics,
    strong_equiv,
    structural_match,
    weak_equiv,
)
from gramconv.converge import (
    ResolutionConflict,
    _Aligner,
    _Binding,
    _complete_matchings,
    _greedy_fixpoint,
    _leaf_name,
    _Resolution,
    _SignatureIndex,
)
from gramconv.grammar import (
    VALUE_INT,
    VALUE_NAMES,
    VALUE_STR,
    Choice,
    Grammar,
    Nonterminal,
    Plus,
    Selectable,
    Sequence,
    Star,
    Terminal,
    children,
    choice,
    n,
    opt,
    p,
    plus,
    sel,
    seq,
    star,
    subterms,
    t,
    with_children,
)
from gramconv.mutate import anf_check
from gramconv.transform import TransformStep, apply_script, rename_nonterminal
from conftest import FL_MAPPING

from gen import SELECTORS, TERMINALS, random_anf, random_expr, random_grammar, rooted_anf
import oracles
from oracles import resolution_oracle


def fp(*markers):
    return Footprint.of(markers)


# -- footprints ----------------------------------------------------------------


def test_footprint_plus():
    assert footprint("function", plus(n("function"))) == fp("+")


def test_footprint_sequence_union():
    rhs = seq(n("expr"), n("operator"), n("expr"))
    assert footprint("expr", rhs) == fp("1", "1")
    assert footprint("operator", rhs) == fp("1")


def test_footprint_absent_name_is_empty():
    assert footprint("zz", seq(n("a"), star(n("b")))) == fp()


def test_footprint_ignores_choice_occurrences():
    from gramconv.grammar import choice
    assert footprint("a", choice(n("a"), n("b"))) == fp()
    assert footprint("a", seq(n("a"), choice(n("a"), n("b")))) == fp("1")


def test_footprint_markers():
    assert footprint("a", opt(n("a"))) == fp("?")
    assert footprint("a", star(n("a"))) == fp("*")
    assert footprint("a", seq(n("a"), plus(n("a")))) == fp("1", "+")


def test_footprint_outermost_marker_wins():
    assert footprint("a", star(plus(n("a")))) == fp("*")
    assert footprint("a", opt(star(n("a")))) == fp("?")


def test_footprint_values_participate():
    assert footprint("str", seq(VALUE_STR, plus(VALUE_STR))) == fp("1", "+")
    assert footprint("int", VALUE_INT) == fp("1")


def test_footprint_is_a_multiset_homomorphism_over_sequences():
    from gen import NAMES, random_expr
    from gramconv.grammar import Sequence
    rng = random.Random(29)
    for _ in range(200):
        parts = [random_expr(rng, NAMES[:4], 2) for _ in range(rng.randint(2, 4))]
        whole = seq(*parts)
        if not isinstance(whole, Sequence):
            continue
        for name in NAMES[:4]:
            combined = fp()
            for part in whole.parts:
                combined = combined.union(footprint(name, part))
            assert footprint(name, whole) == combined


def test_footprints_match_the_per_name_recursion():
    # key order counts: a name met first under a choice keeps that place
    from gen import NAMES
    rng = random.Random(37)
    for _ in range(2000):
        for prod in random_grammar(rng).productions:
            assert list(prodsig(prod).items()) == \
                list(oracles.per_name_prodsig(prod).items()), prod
            for name in NAMES[:3] + ["str"]:
                assert footprint(name, prod.rhs) == oracles.footprint(name, prod.rhs)


def test_shared_footprints_equal_and_hash_like_built_ones():
    # Footprint.of shares one instance per marker sequence; a footprint
    # built directly from the sorted markers is equal to it and hashes alike
    import dataclasses
    import itertools
    from gramconv import converge
    order = {"1": 0, "?": 1, "+": 2, "*": 3}
    assert [f.name for f in dataclasses.fields(Footprint)] == ["markers"]
    rng = random.Random(41)
    for size in range(6):
        for markers in itertools.product("1?+*", repeat=size):
            shuffled = list(markers)
            rng.shuffle(shuffled)
            built = Footprint(tuple(sorted(markers, key=order.__getitem__)))
            shared = Footprint.of(markers)
            assert shared == built and hash(shared) == hash(built)
            assert repr(shared) == repr(built) == f"Footprint(markers={built.markers!r})"
            assert Footprint.of(markers) is shared and Footprint.of(shuffled) == shared
            weak = Footprint(tuple("*" if m == "+" else m for m in built.markers))
            assert shared.weak() == weak and hash(shared.weak()) == hash(weak)
            assert shared.weak() is (Footprint.of(weak.markers) if "+" in markers else shared)
    # the cache stays bounded, and gives the same footprints once emptied
    for k in range(converge._SHARED_MAX + 10):
        assert Footprint.of(("1",) * k + ("*",)).markers == ("1",) * k + ("*",)
        assert len(converge._SHARED) <= converge._SHARED_MAX
    assert Footprint.of(["*", "1"]) == Footprint(("1", "*"))


# -- prodsigs -------------------------------------------------------------------


def test_prodsig_fl_function_rule(fl_master):
    sig = prodsig(fl_master.productions[1])
    assert sig == {"str": fp("1", "+"), "expr": fp("1")}


def test_prodsig_terminal_only_rhs_is_empty():
    assert prodsig(p("a", t("x"))) == {}


def test_prodsig_star_rule(jaxb_anf):
    sig = prodsig(jaxb_anf.rules_of("Program")[0])
    assert sig == {"Function": fp("*")}


def test_prodsig_full_master_table(fl_master):
    rendered = [{name: f.render() for name, f in prodsig(prod).items()}
                for prod in fl_master.productions]
    assert rendered == [
        {"function": "+"},
        {"str": "1+", "expr": "1"},
        {"str": "1"},
        {"int": "1"},
        {"apply": "1"},
        {"binary": "1"},
        {"cond": "1"},
        {"str": "1", "expr": "+"},
        {"expr": "11", "operator": "1"},
        {"expr": "111"},
    ]


# -- equivalences ----------------------------------------------------------------


def test_strong_equiv_chain_rules(jaxb_anf, fl_master_abstract):
    left = jaxb_anf.productions[0]            # Expr -> Expr_1
    right = fl_master_abstract.productions[4]  # expression -> apply
    assert strong_equiv(left, right)


def test_strong_equiv_reflexive(fl_master):
    for prod in fl_master.productions:
        assert strong_equiv(prod, prod)


def test_star_vs_plus_is_weak_not_strong(jaxb_anf, fl_master_abstract):
    left = jaxb_anf.rules_of("Program")[0]
    right = fl_master_abstract.rules_of("program")[0]
    assert not strong_equiv(left, right)
    assert weak_equiv(left, right)


def test_weak_equiv_function_rules(jaxb_anf, fl_master_abstract):
    assert weak_equiv(jaxb_anf.rules_of("Function")[0],
                      fl_master_abstract.rules_of("function")[0])


def test_disjoint_signatures_not_weak(fl_master):
    assert not weak_equiv(fl_master.productions[0], fl_master.productions[8])


def test_strong_implies_weak_and_symmetry():
    rng = random.Random(13)
    rules = []
    for _ in range(40):
        g = random_anf(rng, vocab=rng.randint(2, 5))
        rules.extend(g.productions)
    sample = rng.sample(rules, min(len(rules), 30))
    for a in sample:
        for b in sample:
            if strong_equiv(a, b):
                assert weak_equiv(a, b)
            assert strong_equiv(a, b) == strong_equiv(b, a)
            assert weak_equiv(a, b) == weak_equiv(b, a)


# -- pair resolution --------------------------------------------------------------


def test_pair_resolution_strong_composition(jaxb_anf, fl_master_abstract):
    left = jaxb_anf.rules_of("Expr_2")[0]
    right = fl_master_abstract.rules_of("binary")[0]
    candidates = pair_resolution(left, right, "strong")
    assert len(candidates) == 1
    assert candidates[0].as_dict() == {"Ops": "operator", "Expr": "expression"}


def test_pair_resolution_identity(fl_master):
    prod = fl_master.productions[1]
    candidates = pair_resolution(prod, prod, "strong")
    assert candidates[0].as_dict() == {"str": "str", "expr": "expr"}


def test_pair_resolution_weak_enumerates_bijections():
    left = p("a", seq(n("x"), n("y")))
    right = p("b", seq(n("u"), n("v")))
    candidates = pair_resolution(left, right, "weak")
    assert len(candidates) == 2
    dicts = sorted(cand.as_dict().items() for cand in candidates)
    assert dicts == sorted([
        dict(x="u", y="v").items(), dict(x="v", y="u").items()])


def test_pair_resolution_rejects_nonequivalent(fl_master):
    with pytest.raises(ResolutionError):
        pair_resolution(fl_master.productions[0], fl_master.productions[8], "strong")


def test_pair_resolution_omega_for_leftovers():
    # weak equivalence compares footprint sets, so the duplicate {1} entries
    # collapse and the rules still correspond; the extra name pairs with omega
    left = p("a", seq(n("x"), n("y")))
    right = p("b", n("u"))
    assert weak_equiv(left, right)
    candidates = pair_resolution(left, right, "weak")
    assert len(candidates) == 2
    for cand in candidates:
        omegas = [a for a, b in cand.pairs if b is None]
        assert len(omegas) == 1
        assert len(cand.as_dict()) == 1


def test_a_repeated_footprint_gives_weak_classes_and_no_strong_ones():
    # b and c both carry 1, so the signature has no equal-footprint
    # bijection to be unique; + and * share a weak class
    prod = p("a", seq(n("b"), n("c"), star(n("d")), plus(n("e"))))
    g = Grammar(("a",), (prod,))
    index = _SignatureIndex(g)
    assert index.classes == [{fp("1"): ("b", "c"), fp("*"): ("d", "e")}]
    assert index.keys == [frozenset({fp("1"), fp("*")})]
    assert index.strong_keys == [None]
    res = _Resolution(g, g)
    assert res.buckets == {frozenset({fp("1"), fp("*")}): [0]}
    assert len(res.options[0]) == 4 and res.strong_options() == [[]]
    assert weak_equiv(prod, prod) and not strong_equiv(prod, prod)
    with pytest.raises(ResolutionError) as err:
        pair_resolution(prod, prod, "strong")
    assert str(err.value) == "productions are not strongly prodsig-equivalent"
    assert len(pair_resolution(prod, prod, "weak")) == 4


# -- nominal resolution -------------------------------------------------------------


def test_nominal_resolution_reproduces_case_study_mapping(fl_master_abstract, jaxb_anf):
    mapping = nominal_resolution(fl_master_abstract, jaxb_anf)
    assert mapping.as_dict() == FL_MAPPING
    assert len(mapping.pairs) == 9


def test_nominal_resolution_identity(fl_master_abstract, jaxb_anf):
    for g in (fl_master_abstract, jaxb_anf):
        mapping = nominal_resolution(g, g)
        assert all(a == b for a, b in mapping.pairs)


def test_nominal_resolution_self_is_identity_or_truly_symmetric():
    # on a corpus of normalized grammars, resolving a grammar against itself
    # yields the identity unless the grammar has interchangeable names, in
    # which case the ambiguity must be confirmed by the oracle
    rng = random.Random(59)
    identities = 0
    for _ in range(40):
        g = random_anf(rng, vocab=rng.randint(2, 5))
        try:
            mapping = nominal_resolution(g, g)
        except ResolutionAmbiguity:
            assert len(resolution_oracle(g, g)) > 1
            continue
        assert all(a == b for a, b in mapping.pairs)
        identities += 1
    assert identities >= 30


def test_nominal_resolution_requires_anf(fl_master, jaxb_model):
    with pytest.raises(ResolutionError):
        nominal_resolution(fl_master, jaxb_model)


def test_nominal_resolution_reports_ambiguity():
    master = Grammar(("r",), (p("r", seq(n("x"), n("y"), VALUE_STR)),
                              p("x", seq(VALUE_INT, VALUE_INT)),
                              p("y", seq(VALUE_INT, VALUE_INT))))
    servant = rename_nonterminal(rename_nonterminal(rename_nonterminal(
        master, "r", "R"), "x", "A"), "y", "B")
    assert resolution_oracle(master, servant) and len(resolution_oracle(master, servant)) == 2
    with pytest.raises(ResolutionAmbiguity):
        nominal_resolution(master, servant)


def test_nominal_resolution_agrees_with_oracle():
    rng = random.Random(77)
    unique_cases = 0
    for _ in range(60):
        master = random_anf(rng, vocab=rng.randint(3, 8))
        names = sorted({prod.lhs for prod in master.productions}
                       | {name for prod in master.productions
                          for name in _names_of(prod)})
        image = [f"s{i}" for i in range(len(names))]
        rng.shuffle(image)
        phi = dict(zip(names, image))
        servant = _apply_bijection(master, phi)
        solutions = resolution_oracle(master, servant)
        try:
            mapping = nominal_resolution(master, servant)
        except ResolutionAmbiguity:
            assert len(solutions) != 1
            continue
        if len(solutions) == 1:
            unique_cases += 1
            got = {a: b for a, b in mapping.pairs if a is not None and b is not None}
            want = {v: k for k, v in phi.items()}
            for value in ("str", "int"):
                want.setdefault(value, value)
            assert {k: got[k] for k in want if k in got} == \
                {k: want[k] for k in want if k in got}
    assert unique_cases >= 20


def _names_of(prod):
    from gramconv.grammar import used_names
    return used_names(prod.rhs)


def _apply_bijection(g, phi):
    from gramconv.grammar import Production, rename_expr
    return Grammar(tuple(phi.get(r, r) for r in g.roots),
                   tuple(Production(phi.get(prod.lhs, prod.lhs),
                                    rename_expr(prod.rhs, phi), prod.label)
                         for prod in g.productions))


# -- signature index and search limits -------------------------------------------


def test_signature_index_agrees_with_pairwise_definitions():
    # the weak bucket lookup and the strong keys stand in for
    # weak_equiv/strong_equiv; pair_resolution gives the relations of the
    # oracle's definition, and the resolution's relations and its strong
    # options give those of them that bind on their own, on arbitrary (not
    # only normalized) productions; at weak strength both on pairs whose
    # classes all hold one name on each side, whose one relation
    # `_class_relations` builds directly, and on pairs where some class
    # holds more
    from oracles import _binds_alone
    rng = random.Random(83)
    keyed = {"strong": 0, "weak": 0}
    shapes = {True: 0, False: 0}  # whether every weak class is one name each side
    for _ in range(200):
        master, servant = (random_grammar(rng) if rng.random() < 0.5
                           else random_anf(rng, vocab=rng.randint(2, 6))
                           for _ in range(2))
        res = _Resolution(master, servant)
        strong = res.strong_options()
        for si, sprod in enumerate(servant.productions):
            skey = res.servant.strong_keys[si]
            for mi, mprod in enumerate(master.productions):
                found = {"strong": skey is not None and skey == res.master.strong_keys[mi],
                         "weak": mi in res.candidates(si)}
                for strength, equiv in (("strong", strong_equiv), ("weak", weak_equiv)):
                    assert found[strength] == equiv(sprod, mprod)
                got = {"strong": [rel for m, rel in strong[si] if m == mi],
                       "weak": res.relations(si, mi) if found["weak"] else []}
                for strength in found:
                    if not found[strength]:
                        assert got[strength] == []
                        continue
                    keyed[strength] += 1
                    defined = oracles._signature_relations(
                        prodsig(sprod), prodsig(mprod), strength)
                    assert pair_resolution(sprod, mprod, strength) == \
                        [NominalMapping(pairs) for pairs in defined]
                    want = [((sprod.lhs, mprod.lhs),)
                            + tuple(sorted((a, b) for a, b in pairs
                                           if a is not None and b is not None))
                            for pairs in defined]
                    assert got[strength] == [rel for rel in want if _binds_alone(rel)]
                    if strength == "weak":
                        shapes[all(len(names) == 1 for classes in (
                            res.servant.classes[si], res.master.classes[mi])
                            for names in classes.values())] += 1
    assert keyed["strong"] >= 100 and keyed["weak"] > keyed["strong"]
    assert min(shapes.values()) >= 100, shapes


def _root_seed(master, servant):
    seed = _Binding()
    seed.bind(servant.roots[0], master.roots[0])
    return seed


def test_complete_matchings_reports_node_budget(fl_master_abstract, jaxb_anf):
    res = _Resolution(fl_master_abstract, jaxb_anf)
    seed = _root_seed(fl_master_abstract, jaxb_anf)
    assert _complete_matchings(res, seed, cap=1) == ([], True)
    results, capped = _complete_matchings(res, seed)
    assert results and not capped


def _twins_master():
    # four twins a..d: weakly equivalent rules (+ against *) whose exact
    # signatures differ, none of them strongly comparable
    def twin(marker, k_marker):
        return seq(marker(VALUE_INT), marker(VALUE_STR), k_marker(n("k")))
    return Grammar(("r",), (p("r", seq(n("a"), n("b"), n("c"), n("d"))),
                            p("a", twin(plus, star)), p("b", twin(star, plus)),
                            p("c", twin(plus, plus)), p("d", twin(star, star)),
                            p("k", seq(VALUE_INT, VALUE_INT))))


def test_binding_limit_never_picks_a_winner_from_a_truncated_list():
    master = _twins_master()
    phi = {"r": "R", "a": "S", "b": "Q", "c": "P", "d": "T", "k": "K"}
    renamed = _apply_bijection(master, phi).productions
    # servant twins in the order of masters c, b, a, d: the planted binding
    # is not among the first bindings the search finds, and one of those
    # scores more exact matches than the rest
    servant = Grammar(("R",), tuple(renamed[i] for i in (0, 3, 2, 1, 4, 5)))
    planted = {v: k for k, v in phi.items()}

    results, capped = _complete_matchings(_Resolution(master, servant),
                                          _root_seed(master, servant))
    assert capped and len(results) == SEARCH_MAX_BINDINGS
    assert not any(planted.items() <= found.items() for found in results)
    with pytest.raises(ResolutionAmbiguity):
        nominal_resolution(master, servant)


def test_no_complete_matching_keeps_the_greedy_binding(fl_master_abstract, jaxb_anf):
    # Extra's rule has no weakly equivalent master rule, so no complete
    # matching exists and the greedy binding is the result
    servant = Grammar(jaxb_anf.roots, jaxb_anf.productions + (
        p("Expr", n("Extra")), p("Extra", seq(VALUE_INT, VALUE_STR, VALUE_STR))))
    res = _Resolution(fl_master_abstract, servant)
    assert _complete_matchings(res, _root_seed(fl_master_abstract, servant)) == ([], False)
    got = nominal_resolution(fl_master_abstract, servant).as_dict()
    want = {"Program": "program", "Function": "function", "Ops": "operator",
            "str": "str", "int": "int"}
    assert {name: got.get(name) for name in want} == want


def _planted_servant(rng, master, node_fn=lambda node: node):
    """A renamed, rule-shuffled copy of master, whose rhs nodes `node_fn`
    may rebuild, and the planted servant-to-master renaming."""
    from gramconv.grammar import Production, names_in_order, rebuild, rename_expr
    names = names_in_order(master)
    image = [f"s{i}" for i in range(len(names))]
    rng.shuffle(image)
    phi = dict(zip(names, image))
    rules = [Production(phi[prod.lhs], rebuild(rename_expr(prod.rhs, phi), node_fn))
             for prod in master.productions]
    rng.shuffle(rules)
    return Grammar((phi[master.roots[0]],), tuple(rules)), {v: k for k, v in phi.items()}


def _capped_pairs(monkeypatch):
    """Renamed, rule-shuffled rooted_anf pairs whose search for complete
    matchings stops at a binding limit of one, each with the planted
    renaming and the search's candidates."""
    import gramconv.converge as converge
    monkeypatch.setattr(converge, "SEARCH_MAX_BINDINGS", 1)
    rng = random.Random(1)
    for _ in range(300):
        master = rooted_anf(rng, rng.randint(8, 10))
        servant, planted = _planted_servant(rng, master)
        candidates, capped = _complete_matchings(_Resolution(master, servant),
                                                 _root_seed(master, servant))
        if capped:
            yield master, servant, planted, candidates


def test_capped_search_keeps_a_complete_greedy_binding_and_refuses_a_partial_one(
        monkeypatch):
    # a greedy binding of every servant name is the planted renaming here;
    # one that leaves names open is refused with the capped candidates
    from gramconv.grammar import names_in_order
    outcomes = {"kept": 0, "refused": 0}
    for master, servant, planted, candidates in _capped_pairs(monkeypatch):
        try:
            got = nominal_resolution(master, servant).as_dict()
        except ResolutionAmbiguity as err:
            outcomes["refused"] += 1
            assert candidates and err.candidates == tuple(candidates)
            continue
        outcomes["kept"] += 1
        values = {name: name for name in ("str", "int")}
        assert got == {name: {**values, **planted}[name]
                       for name in names_in_order(servant, _leaf_name)}
    assert outcomes["kept"] >= 5 and outcomes["refused"] >= 5


def _differential_pairs(count):
    """Seeded rooted_anf and random_anf masters, each with a renamed,
    rule-shuffled copy, a copy that also swaps + and * at random (weak-only
    pairs), or an independent draw of the same kind as its servant."""
    from gramconv.grammar import Plus, Star
    rng = random.Random(29)

    def swap(node):
        if isinstance(node, (Plus, Star)) and rng.random() < 0.5:
            return star(node.body) if isinstance(node, Plus) else plus(node.body)
        return node

    for i in range(count):
        def draw():
            if i % 2:
                return random_anf(rng, vocab=rng.randint(2, 6))
            return rooted_anf(rng, rng.randint(4, 12))
        master = draw()
        roll = rng.random()
        servant = (_planted_servant(rng, master)[0] if roll < 0.4
                   else _planted_servant(rng, master, swap)[0] if roll < 0.75 else draw())
        yield master, servant


def _seed_of(master, servant):
    seed = _Binding()
    for rs, rm in zip(servant.roots, master.roots):
        seed.bind(rs, rm)
    return seed


def _outcome(resolve, master, servant):
    try:
        return resolve(master, servant)
    except ResolutionError as err:
        return type(err).__name__, str(err)


def test_option_table_search_agrees_with_the_search_it_replaced(monkeypatch):
    # the search over watched options, which undoes its kills from a trail,
    # against the verbatim search that re-derived every open production's
    # options at every node: the same bindings in the same order, the same
    # capped flag under forced node and binding limits, the same greedy
    # binding and the same resolution or error
    import gramconv.converge as converge
    from gramconv.converge import _resolve
    seen = {"capped": 0, "unmatched": 0, "refused": 0}
    for master, servant in _differential_pairs(400):
        res, old = _Resolution(master, servant), oracles._Resolution(master, servant)
        for limit in (1, 2, 7):
            monkeypatch.setattr(converge, "SEARCH_MAX_BINDINGS", limit)
            monkeypatch.setattr(oracles, "SEARCH_MAX_BINDINGS", limit)
            for cap in (1, 3, 10, 50, 200, 30000):
                got = _complete_matchings(res, _seed_of(master, servant), cap=cap)
                want = oracles._complete_matchings(old, _seed_of(master, servant), cap)
                assert [list(fwd.items()) for fwd in got[0]] == \
                       [list(fwd.items()) for fwd in want[0]]
                assert got[1] == want[1]
                seen["capped"] += got[1]
            seen["unmatched"] += not got[0]
            outcome = _outcome(_resolve, master, servant)
            assert outcome == _outcome(oracles._resolve, master, servant)
            seen["refused"] += isinstance(outcome, tuple)
        got = _greedy_fixpoint(res, _seed_of(master, servant)).fwd
        want = oracles._greedy_fixpoint(old, _seed_of(master, servant)).fwd
        assert list(got.items()) == list(want.items())
    assert min(seen.values()) >= 3, seen
    # renamed, rule-shuffled masters of 40 and 80 rules, where the search
    # runs deep, under caps that stop it early, midway and not at all
    rng = random.Random(31)
    capped = 0
    for size in (40, 40, 80, 80):
        master = rooted_anf(rng, size)
        servant = _planted_servant(rng, master)[0]
        res, old = _Resolution(master, servant), oracles._Resolution(master, servant)
        for cap in (2, 10, 100, 30000):
            got = _complete_matchings(res, _seed_of(master, servant), cap=cap)
            want = oracles._complete_matchings(old, _seed_of(master, servant), cap)
            assert [list(fwd.items()) for fwd in got[0]] == \
                   [list(fwd.items()) for fwd in want[0]]
            assert got[1] == want[1]
            capped += got[1]
        assert _outcome(_resolve, master, servant) == _outcome(oracles._resolve, master, servant)
    assert capped >= 8


def test_a_self_referential_rule_binds_its_lhs_pair_once():
    # a's relation pairs a with A twice, as the lhs and as a name of the
    # rhs: the search binds the pair once and takes it back once
    master = Grammar(("s",), (p("a", seq(n("b"), opt(n("a")))), p("s", n("a")),
                              p("b", VALUE_INT)))
    servant = _apply_bijection(master, {"a": "A", "s": "S", "b": "B"})
    res = _Resolution(master, servant)
    assert [rel for _, rel in res.options[0]] == [(("A", "a"), ("A", "a"), ("B", "b"))]
    got = _complete_matchings(res, _seed_of(master, servant))
    want = oracles._complete_matchings(oracles._Resolution(master, servant),
                                       _seed_of(master, servant))
    assert [list(fwd.items()) for fwd in got[0]] == [list(fwd.items()) for fwd in want[0]] \
        == [[("S", "s"), ("A", "a"), ("B", "b"), ("int", "int")]]
    assert got[1] is want[1] is False
    assert nominal_resolution(master, servant).as_dict() == \
        {"A": "a", "S": "s", "B": "b", "int": "int"}


def test_signature_index_names_follow_names_in_order():
    # the index lists each grammar's names from its one walk per rule, in
    # the order of names_in_order(g, _leaf_name), also on grammars that are
    # not in ANF, whose names may sit under choices, separators and selectors
    from gramconv.grammar import names_in_order
    from gen import corpus
    rng = random.Random(47)
    grammars = [*corpus(43, 300), *(random_anf(rng, vocab=rng.randint(2, 8)) for _ in range(60)),
                *(rooted_anf(rng, size) for size in (4, 12, 40))]
    for g in grammars:
        index = _SignatureIndex(g)
        assert index.names == names_in_order(g, _leaf_name)
        assert index.sigs == [prodsig(prod) for prod in g.productions]
    assert any(anf_check(g) for g in grammars)


def _six_twins_master():
    # r's six names share one footprint, so the r pair alone induces 720
    # weak relations; their own rules tell them apart
    names = "abcdef"
    return Grammar(("r",), (p("r", seq(*(n(name) for name in names))),) + tuple(
        p(name, seq(*[VALUE_INT if i < 3 else VALUE_STR] * (i % 3 + 2)))
        for i, name in enumerate(names)))


def _defined_table(res, strength):
    """The option table at `strength` from its definitions: the master
    productions `strong_equiv` or `weak_equiv` accepts, each with the
    oracle's `_signature_relations`, the lhs pair first and omega dropped,
    filtered by `_binds_alone`."""
    from oracles import _binds_alone
    equiv = strong_equiv if strength == "strong" else weak_equiv
    table = []
    for si, sprod in enumerate(res.servant.productions):
        options = []
        for mi, mprod in enumerate(res.master.productions):
            if not equiv(sprod, mprod):
                continue
            for pairs in oracles._signature_relations(
                    res.servant.sigs[si], res.master.sigs[mi], strength):
                rel = ((sprod.lhs, res.master.productions[mi].lhs),) + tuple(
                    sorted((a, b) for a, b in pairs if a is not None and b is not None))
                if _binds_alone(rel):
                    options.append((mi, rel))
        table.append(options)
    return table


def test_weak_classes_give_the_defined_option_table_and_match_strengths(
        fl_master_abstract, jaxb_model):
    # the option table built from the per-production weak classes, its
    # strong options, and the pair strengths read from the strong keys, against their
    # definitions; a direct structural_match, whose mapping carries no
    # indexes, builds them itself and gives the same report
    six = _six_twins_master()
    six_servant = _apply_bijection(six, {name: name.upper() for name in "rabcdef"})
    pairs = [*_differential_pairs(150), (fl_master_abstract, jaxb_model), (six, six_servant)]
    seen = {"widest": 0, "converged": 0, "strong": 0}
    for master, servant in pairs:
        res = _Resolution(master, servant)
        table = res.options
        assert table == _defined_table(res, "weak")
        assert res.strong_options() == _defined_table(res, "strong")
        seen["widest"] = max(seen["widest"], max(map(len, table)))
        anf = {}
        try:
            report = guided_converge(master, servant,
                                     observer=lambda phase, g: anf.setdefault(phase, g))
        except (ResolutionError, MatchError):
            continue
        seen["converged"] += 1
        # a pair is strong when no step rewrites its servant rule and the
        # two rules are strongly equivalent
        stepped = {(step.args["lhs"], step.args["pos"]) for step in report.structural_trace}
        for pair in report.pairs:
            pos = anf["servant-anf"].rules_of(pair.left.lhs).index(pair.left)
            step_free = (pair.left.lhs, pos) not in stepped
            assert pair.strength == ("strong" if step_free and strong_equiv(pair.left, pair.right)
                                     else "weak")
            seen["strong"] += pair.strength == "strong"
        direct = structural_match(anf["master-anf"], anf["servant-anf"],
                                  NominalMapping(report.mapping.pairs))
        assert report.mapping.indexes is not None and direct.mapping.indexes is None
        assert (direct.pairs, direct.residue, direct.structural_trace) == \
            (report.pairs, report.residue, report.structural_trace)
        # the carried keys are not read for other rules, such as the same
        # servant rules in reverse order
        reverse = Grammar(anf["servant-anf"].roots, anf["servant-anf"].productions[::-1])
        assert structural_match(anf["master-anf"], reverse, report.mapping) == \
            structural_match(anf["master-anf"], reverse, NominalMapping(report.mapping.pairs))
    assert seen["widest"] >= 720 and seen["converged"] >= 100 and seen["strong"] >= 300, seen


def _pinned_rows(master, servant):
    """The option table's row sizes, once the table and its strong options
    are checked against their definitions."""
    res = _Resolution(master, servant)
    assert res.options == _defined_table(res, "weak")
    assert res.strong_options() == _defined_table(res, "strong")
    return [len(row) for row in res.options]


def test_a_value_on_one_side_of_a_class_pairs_with_no_name():
    # r's class {a, str} against R's {A, B}, either way round: the value
    # has no value to pair with, and paired with a name it never binds
    with_value = Grammar(("r",), (p("r", seq(n("a"), VALUE_STR)), p("a", VALUE_INT)))
    plain = Grammar(("R",), (p("R", seq(n("A"), n("B"))), p("A", VALUE_INT),
                             p("B", VALUE_INT)))
    assert _pinned_rows(with_value, plain) == [0, 1, 1]
    assert _pinned_rows(plain, with_value) == [0, 2]


def test_two_values_in_a_four_name_class_pair_only_with_themselves():
    # of the 4! pairings of r's and R's classes, the two that pair each
    # value with itself bind; the strong classes pair str with int
    master = Grammar(("r",), (p("r", seq(n("a"), VALUE_STR, n("b"), VALUE_INT)),))
    servant = Grammar(("R",), (p("R", seq(VALUE_INT, n("B"), VALUE_STR, n("A"))),))
    assert _pinned_rows(master, servant) == [2]
    master = Grammar(("r",), (p("r", seq(opt(n("a")), VALUE_STR, star(n("b")),
                                         plus(VALUE_INT))),))
    servant = Grammar(("R",), (p("R", seq(opt(n("A")), VALUE_INT, star(n("B")),
                                          plus(VALUE_STR))),))
    assert strong_equiv(servant.productions[0], master.productions[0])
    assert _pinned_rows(master, servant) == [0]


def test_a_self_referential_lhs_in_a_class_pairs_only_with_the_other_lhs():
    # R -> R A B against r -> a r b: R pairs with r, A and B with a and b;
    # an lhs in one class only is left for the other side's names to skip
    master = Grammar(("r",), (p("r", seq(n("a"), n("r"), n("b"))),))
    servant = Grammar(("R",), (p("R", seq(n("R"), n("A"), n("B"))),))
    assert _pinned_rows(master, servant) == [2]
    assert _pinned_rows(master, Grammar(("R",), (p("R", seq(n("C"), n("A"), n("B"))),))) == [0]
    assert _pinned_rows(Grammar(("r",), (p("r", seq(n("a"), n("c"), n("b"))),)), servant) == [0]
    wide = Grammar(("r",), (p("r", seq(n("a"), n("r"), n("b"), n("c"))),))
    assert _pinned_rows(wide, servant) == [6]
    # an lhs that bears a value's name binds only to that name
    valued = Grammar(("str",), (p("str", seq(n("a"), n("b"))),))
    assert _pinned_rows(valued, Grammar(("R",), (p("R", seq(n("A"), n("B"))),))) == [0]
    assert _pinned_rows(valued, Grammar(("str",), (p("str", seq(n("A"), n("B"))),))) == [2]


def test_a_value_only_the_larger_side_holds_is_left_unpaired():
    # the larger class pairs only its free names with the smaller one's,
    # on either side
    master = Grammar(("r",), (p("r", seq(n("a"), n("b"))),))
    servant = Grammar(("R",), (p("R", seq(n("A"), VALUE_STR, n("B"))),))
    assert _pinned_rows(master, servant) == [2]
    assert _pinned_rows(servant, master) == [2]
    assert _pinned_rows(Grammar(("r",), (p("r", seq(n("a"), VALUE_INT)),)), servant) == [0]


def test_a_class_expands_only_over_its_free_names():
    # nine names a class, str and int among them on each side: 7! relations
    # for the pair, where expanding all nine names (9! = 362,880
    # permutations, then filtered) peaked at about 260 MiB
    import tracemalloc
    rng = random.Random(3)
    names = [n(f"a{i}") for i in range(7)] + [VALUE_STR, VALUE_INT]
    upper = [n(leaf.name.upper()) if type(leaf) is Nonterminal else leaf for leaf in names]
    rng.shuffle(names)
    rng.shuffle(upper)
    master = Grammar(("r",), (p("r", seq(*names)),))
    servant = Grammar(("R",), (p("R", seq(*upper)),))
    tracemalloc.start()
    try:
        table = _Resolution(master, servant).options
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table[0]) == 5040
    assert peak < 32 * 2**20


def test_a_footprint_hashes_once_as_its_markers_tuple():
    # the hash a footprint keeps is the generated dataclass hash, and a
    # footprint built after the shared cache is emptied is equal to one
    # built before and finds it in a table
    from gramconv import converge
    first = Footprint.of(("*", "1", "+"))
    table = {first: "found"}
    assert hash(first) == hash((first.markers,))
    converge._SHARED.clear()
    again = Footprint.of(("+", "*", "1"))
    assert again is not first and again == first and hash(again) == hash(first)
    assert table[again] == "found" and again in {Footprint(("1", "+", "*"))}


def test_conflict_names_the_pair_that_blocks_it():
    # duplicated master roots pass the ANF check (condition 9 compares
    # sets), so the seed meets the master-side clash
    master = Grammar(("x", "x"), (p("x", seq(VALUE_STR, VALUE_INT)),))
    servant = Grammar(("A", "B"), (p("A", seq(VALUE_STR, VALUE_INT)),
                                   p("B", seq(VALUE_INT, VALUE_STR))))
    with pytest.raises(ResolutionConflict) as err:
        nominal_resolution(master, servant)
    assert err.value.bindings == (("A", "x"), ("B", "x"))
    assert str(err.value) == "conflicting bindings: A -> x, B -> x"
    # a built-in value meeting another name is held by its own pair
    for held in ({}, {"str": "str"}):
        binding = _Binding()
        for a, b in held.items():
            binding.bind(a, b)
        with pytest.raises(ResolutionConflict) as err:
            binding.bind("A", "str")
        assert str(err.value) == "conflicting bindings: str -> str, A -> str"
    binding = _Binding()
    binding.bind("A", "b")
    with pytest.raises(ResolutionConflict) as err:
        binding.bind("A", "c")
    assert err.value.bindings == (("A", "b"), ("A", "c"))


def _weak_profiles(g):
    """Per defined name, its rules' signatures with the names of
    nonterminals forgotten and + read as *; a renaming onto the grammar
    itself that preserves exact signatures keeps every name's profile."""
    rules = {}
    for prod in g.productions:
        shape = sorted((name if name in ("str", "int") else "n", f.weak().render())
                       for name, f in prodsig(prod).items())
        rules.setdefault(prod.lhs, []).append(tuple(shape))
    return {name: tuple(sorted(shapes)) for name, shapes in rules.items()}


@pytest.mark.parametrize("size", [4, 6, 8])
def test_rooted_anf_has_exactly_the_requested_rules(size):
    for seed in range(200):
        g = rooted_anf(random.Random(seed), size)
        assert len(g.productions) == size
        assert not anf_check(g)


def test_nominal_resolution_at_scale_finds_the_planted_renaming():
    rng = random.Random(40)
    for _ in range(3):
        master = rooted_anf(rng, 40)
        names = list(dict.fromkeys(prod.lhs for prod in master.productions))
        image = [f"s{i}" for i in range(len(names))]
        rng.shuffle(image)
        phi = dict(zip(names, image))
        renamed = list(_apply_bijection(master, phi).productions)
        rng.shuffle(renamed)
        servant = Grammar((phi[master.roots[0]],), tuple(renamed))
        planted = {v: k for k, v in phi.items()}
        try:
            got = nominal_resolution(master, servant).as_dict()
        except ResolutionAmbiguity as err:
            profiles = _weak_profiles(master)
            assert len(set(profiles.values())) < len(profiles)
            assert any(planted.items() <= cand.items() for cand in err.candidates)
            continue
        assert {k: got.get(k) for k in planted} == planted


# -- structural matching ---------------------------------------------------------


def test_structural_match_case_study_table(fl_master_abstract, jaxb_anf):
    mapping = nominal_resolution(fl_master_abstract, jaxb_anf)
    report = structural_match(fl_master_abstract, jaxb_anf, mapping)
    assert len(report.pairs) == 10
    strengths = [pair.strength for pair in report.pairs]
    assert strengths.count("strong") == 6
    assert strengths.count("weak") == 4
    assert report.residue == []
    # row order follows the servant's production order
    assert [pair.left.lhs for pair in report.pairs] == [
        "Expr", "Expr", "Expr", "Expr", "Expr",
        "Function", "Program", "Expr_1", "Expr_2", "Expr_3"]
    assert [pair.right.lhs for pair in report.pairs] == [
        "expression", "expression", "expression", "expression", "expression",
        "function", "program", "apply", "binary", "conditional"]


def test_structural_match_identity_has_empty_trace(jaxb_anf):
    mapping = nominal_resolution(jaxb_anf, jaxb_anf)
    report = structural_match(jaxb_anf, jaxb_anf, mapping)
    assert report.structural_trace == []
    assert all(pair.strength == "strong" for pair in report.pairs)
    assert report.residue == []


def test_structural_match_records_permutation():
    master = Grammar(("m",), (p("m", seq(n("a"), n("b"), n("c"))),
                              p("a", seq(VALUE_STR, VALUE_STR)),
                              p("b", seq(VALUE_INT, VALUE_INT)),
                              p("c", seq(VALUE_STR, VALUE_INT))))
    servant = Grammar(("m2",), (p("m2", seq(n("c2"), n("a2"), n("b2"))),
                                p("a2", seq(VALUE_STR, VALUE_STR)),
                                p("b2", seq(VALUE_INT, VALUE_INT)),
                                p("c2", seq(VALUE_STR, VALUE_INT))))
    mapping = NominalMapping(frozenset(
        [("m2", "m"), ("a2", "a"), ("b2", "b"), ("c2", "c"),
         ("str", "str"), ("int", "int")]))
    report = structural_match(master, servant, mapping)
    permutes = [step for step in report.structural_trace if step.op == "permute"]
    assert len(permutes) == 1
    assert permutes[0].args["order"] == [3, 1, 2]
    replayed = apply_script(servant, report.structural_trace)
    assert replayed.rules_of("m2")[0].rhs == seq(n("a2"), n("b2"), n("c2"))


def test_structural_match_steps_below_a_moved_part_follow_its_move():
    # z+ moves to the master's second place, is widened to a star there, and
    # only then is its z bound to the master's int
    from gramconv.transform import TransformStep
    master = Grammar(("r",), (p("r", seq(n("x"), star(VALUE_INT))), p("x", VALUE_STR)))
    servant = Grammar(("R",), (p("R", seq(plus(n("Z")), n("X"))), p("X", VALUE_STR),
                               p("Z", VALUE_STR)))
    mapping = NominalMapping(frozenset(
        [("R", "r"), ("X", "x"), ("Z", None), ("str", "str"), ("int", "int")]))
    report = structural_match(master, servant, mapping)
    at = {"lhs": "R", "pos": 0}
    assert report.structural_trace == [
        TransformStep("permute", {**at, "order": [2, 1]}),
        TransformStep("set-node", {**at, "path": [1], "expr": star(n("Z")),
                                   "previous": plus(n("Z"))}),
        TransformStep("set-node", {**at, "path": [1, 0], "expr": VALUE_INT,
                                   "previous": n("Z")})]
    replayed = apply_script(servant, report.structural_trace)
    assert replayed.rules_of("R")[0].rhs == seq(n("X"), star(VALUE_INT))


def test_structural_match_permutation_under_identity_naming():
    shared = (p("a", seq(VALUE_STR, VALUE_STR)),
              p("b", seq(VALUE_INT, VALUE_INT)),
              p("c", seq(VALUE_STR, VALUE_INT)))
    master = Grammar(("m",), (p("m", seq(n("a"), n("b"), n("c"))),) + shared)
    servant = Grammar(("m",), (p("m", seq(n("c"), n("a"), n("b"))),) + shared)
    mapping = NominalMapping(frozenset(
        [("m", "m"), ("a", "a"), ("b", "b"), ("c", "c"),
         ("str", "str"), ("int", "int")]))
    report = structural_match(master, servant, mapping)
    permutes = [step for step in report.structural_trace if step.op == "permute"]
    assert [step.args["order"] for step in permutes] == [[3, 1, 2]]


_ALIGN_NAMES = ["a", "b", "c", "d"]
_ALIGN_MAPPING = {"a": "A", "b": "B", "c": "C"}  # d is left unmapped


def _counterpart(rng: random.Random, s):
    """A master-side expression made from the servant-side s: its names
    renamed by _ALIGN_MAPPING, with seeded changes that an alignment may
    undo (a permuted sequence, + against *, a value for a name) or not
    (permuted alternatives, another selector, terminal, name or subtree)."""
    roll = rng.random()
    if roll < 0.04:
        return random_expr(rng, ["A", "B", "C"], 2)
    if type(s) is Nonterminal:
        if roll < 0.15:
            return rng.choice(list(VALUE_NAMES.values()))
        if roll < 0.2:
            return n(rng.choice(["A", "B", "C", "D"]))
        return n(_ALIGN_MAPPING.get(s.name, s.name.upper()))
    if type(s) is Terminal:
        return t(rng.choice(TERMINALS)) if roll < 0.2 else s
    kids = [_counterpart(rng, kid) for kid in children(s)]
    if type(s) in (Sequence, Choice) and roll < 0.4:
        rng.shuffle(kids)
    if type(s) in (Star, Plus) and roll < 0.35:
        return (plus if type(s) is Star else star)(kids[0])
    if type(s) is Selectable and roll < 0.35:
        return sel(rng.choice(SELECTORS), kids[0])
    return with_children(s, kids)


def test_aligner_agrees_with_the_aligner_it_replaced():
    # on seeded pairs of arbitrary shapes, not only ANF: choices, separator
    # lists, selectors, terminals, values, + against *, and permuted
    # rule-level sequences
    rng = random.Random(29)
    seen = {"none": 0, "empty": 0, "selector": 0, "permute": 0, "widen": 0, "value": 0}
    for _ in range(4000):
        s = random_expr(rng, _ALIGN_NAMES, 4)
        if rng.random() < 0.4:
            s = seq(*(random_expr(rng, _ALIGN_NAMES, 2) for _ in range(rng.randint(2, 5))))
        m = _counterpart(rng, s)
        ours = _Aligner(_ALIGN_MAPPING, "r", 1).walk(s, m, ())
        theirs = oracles._Aligner(_ALIGN_MAPPING, "r", 1).walk(s, m, ())
        assert ours == theirs, (s, m)
        if ours is None:
            seen["none"] += 1
            continue
        seen["empty"] += not ours
        seen["selector"] += any(type(sub) is Selectable for sub in subterms(s))
        for step in ours:
            if step.op == "permute":
                seen["permute"] += 1
            elif type(step.args["expr"]) in (Star, Plus):
                seen["widen"] += 1
            else:
                seen["value"] += 1
    assert all(count >= 50 for count in seen.values()), seen


def test_structural_match_requires_total_mapping(fl_master_abstract, jaxb_anf):
    with pytest.raises(MatchError):
        structural_match(fl_master_abstract, jaxb_anf,
                         NominalMapping(frozenset([("Expr", "expression")])))


def test_structural_match_unmatchable_goes_to_residue():
    master = Grammar(("m",), (p("m", seq(n("a"), n("a"))), p("a", seq(VALUE_STR, VALUE_STR))))
    servant = Grammar(("s",), (p("s", plus(n("b"))), p("b", seq(VALUE_STR, VALUE_STR))))
    mapping = NominalMapping(frozenset([("s", "m"), ("b", "a"), ("str", "str")]))
    report = structural_match(master, servant, mapping)
    sides = {entry.side for entry in report.residue}
    assert sides == {"servant", "master"}


def test_structural_match_does_not_pair_choices_of_other_alternatives():
    # choices align alternative by alternative, so b (c | c | b) is not b (b | c)
    shared = (p("b", VALUE_STR), p("c", VALUE_INT))
    master = Grammar(("a",), (p("a", seq(n("b"), choice(n("b"), n("c")))),) + shared)
    servant = Grammar(("a",), (p("a", seq(n("b"), choice(n("c"), n("c"), n("b")))),) + shared)
    mapping = NominalMapping(frozenset(
        [("a", "a"), ("b", "b"), ("c", "c"), ("str", "str"), ("int", "int")]))
    report = structural_match(master, servant, mapping)
    assert [(entry.side, entry.production) for entry in report.residue] == [
        ("servant", servant.productions[0]), ("master", master.productions[0])]
    assert report.structural_trace == []


def test_structural_match_aligns_renamed_choices_and_replays():
    # the second alternative is widened to a star and its Z bound to int,
    # in place: choices are never permuted
    from collections import Counter

    from gramconv.grammar import rename_expr
    master = Grammar(("r",), (p("r", seq(n("x"), choice(n("y"), star(VALUE_INT)))),
                              p("x", VALUE_STR), p("y", seq(VALUE_INT, VALUE_STR))))
    servant = Grammar(("R",), (p("R", seq(n("X"), choice(n("Y"), plus(n("Z"))))),
                               p("X", VALUE_STR), p("Y", seq(VALUE_INT, VALUE_STR)),
                               p("Z", VALUE_STR)))
    mapping = NominalMapping(frozenset(
        [("R", "r"), ("X", "x"), ("Y", "y"), ("Z", None), ("str", "str"), ("int", "int")]))
    report = structural_match(master, servant, mapping)
    at = {"lhs": "R", "pos": 0}
    assert report.structural_trace == [
        TransformStep("set-node", {**at, "path": [1, 1], "expr": star(n("Z")),
                                   "previous": plus(n("Z"))}),
        TransformStep("set-node", {**at, "path": [1, 1, 0], "expr": VALUE_INT,
                                   "previous": n("Z")})]
    names = mapping.as_dict()

    def renamed(prods):
        return Counter((names.get(prod.lhs, prod.lhs), rename_expr(prod.rhs, names))
                       for prod in prods)
    residue = [entry.production for entry in report.residue if entry.side == "servant"]
    assert [prod.lhs for prod in residue] == ["Z"]
    replayed = apply_script(servant, report.structural_trace)
    assert renamed(replayed.productions) == Counter(
        (pair.right.lhs, pair.right.rhs) for pair in report.pairs) + renamed(residue)


# -- the pipeline ------------------------------------------------------------------


def test_guided_converge_reproduces_case_study_mapping(fl_master_abstract, jaxb_model):
    report = guided_converge(fl_master_abstract, jaxb_model)
    assert report.mapping.as_dict() == FL_MAPPING
    assert report.residue == []
    assert report.warnings == []
    assert len(report.normalization_trace) > 0


# each adjacent lib2to3 rung, the newer one normalized as the master and the
# older one, as recovered, as the servant: the sha256 of the report
# (`report_to_json`, keys sorted) with its pair and residue counts, or the
# error and the sha256 of its text.  Each servant reaches the greedy pass,
# which commits mostly strong pairs.  These outcomes are pinned to show a
# change, not because they are right: the residues hold rules the rungs
# share, and 3.7 -> 3.8 ends in ResolutionAmbiguity (ROADMAP items 1 and 3)
LIB2TO3_RUNGS = {
    ("2.7", "3.6"): ("fb4d625f0ae1f62ec6398d2c783c2c03a561b9a97b53a4f452929856a83e20e7",
                     153, 152),
    ("3.6", "3.7"): ("2263e3f7706c97aea497bbab92e950f46901c246874dcaf66ad92a8fc9df7c86",
                     163, 144),
    ("3.7", "3.8"): ("ResolutionAmbiguity",
                     "4c162b184a8bff64c6ae7fb0cbe4a738159f270fbd72a6bde81dcb1c1c4408fc"),
    ("3.8", "3.11"): ("362138ceb2818170f2a58255a924a26914ae0ee50db9e7b97c2d4fccfa4736e7",
                      171, 148),
}


def test_adjacent_lib2to3_rungs_converge_as_pinned(data_dir):
    import hashlib
    import json
    from gramconv.converge import report_to_json
    from gramconv.mutate import Mutation, mutate
    from test_recovery import recover_lib2to3
    found = {}
    for old, new in LIB2TO3_RUNGS:
        master = mutate(recover_lib2to3(data_dir, new).grammar, Mutation("normalize-anf")).grammar
        try:
            report = guided_converge(master, recover_lib2to3(data_dir, old).grammar)
        except ResolutionError as err:
            found[old, new] = (type(err).__name__, hashlib.sha256(str(err).encode()).hexdigest())
            continue
        doc = json.dumps(report_to_json(report), sort_keys=True)
        found[old, new] = (hashlib.sha256(doc.encode()).hexdigest(),
                           len(report.pairs), len(report.residue))
    assert found == LIB2TO3_RUNGS


def test_guided_converge_trivial(jaxb_anf):
    report = guided_converge(jaxb_anf, jaxb_anf)
    assert report.residue == []
    assert report.structural_trace == []
    assert all(a == b for a, b in report.mapping.pairs)


def test_guided_converge_deyaccifies_before_normalizing(fl_master_abstract, jaxb_model):
    # encode the Program repetition through explicit recursion, as an old
    # parser generator would force
    yaccified = Grammar(("Program",), (
        p("Program", n("Function")),
        p("Program", seq(n("Program"), n("Function"))),
    ) + jaxb_model.productions[:2])
    report = guided_converge(fl_master_abstract, yaccified)
    steps = [step.op for step in report.normalization_trace]
    assert steps[0] == "deyaccify"
    assert {a: b for a, b in report.mapping.pairs}["Program"] == "program"


def test_guided_converge_normalizes_unnormalized_master(jaxb_model):
    report = guided_converge(jaxb_model, jaxb_model)
    assert report.warnings
    assert report.residue == []


def _counting_anf_check(monkeypatch):
    """Patch converge's anf_check to record the grammars it is called on."""
    import gramconv.converge as converge_module
    checked = []

    def counting(g):
        checked.append(g)
        return anf_check(g)
    monkeypatch.setattr(converge_module, "anf_check", counting)
    return checked


def test_guided_converge_checks_each_grammar_for_anf_once(monkeypatch, fl_master_abstract,
                                                          jaxb_model):
    checked = _counting_anf_check(monkeypatch)
    observed = {}
    guided_converge(fl_master_abstract, jaxb_model,
                    observer=lambda phase, g: observed.setdefault(phase, g))
    assert [id(g) for g in checked] == [id(fl_master_abstract), id(observed["servant-anf"])]


def test_guided_converge_rechecks_a_normalized_master(monkeypatch, jaxb_model):
    checked = _counting_anf_check(monkeypatch)
    observed = {}
    guided_converge(jaxb_model, jaxb_model,
                    observer=lambda phase, g: observed.setdefault(phase, g))
    assert [id(g) for g in checked] == [
        id(jaxb_model), id(observed["master-anf"]), id(observed["servant-anf"])]


def test_nominal_resolution_names_the_grammar_that_is_not_in_anf(fl_master_abstract,
                                                                 jaxb_model):
    shown = "; ".join(str(v) for v in anf_check(jaxb_model))
    with pytest.raises(ResolutionError) as servant_error:
        nominal_resolution(fl_master_abstract, jaxb_model)
    assert str(servant_error.value) == (
        f"servant grammar is not in abstract normal form: {shown}")
    with pytest.raises(ResolutionError) as master_error:
        nominal_resolution(jaxb_model, fl_master_abstract)
    assert str(master_error.value) == (
        f"master grammar is not in abstract normal form: {shown}")


@pytest.mark.parametrize("k", [9, 10, 12])
def test_guided_converge_permutes_a_long_sequence(k):
    # a{i} is defined by str and i + 1 ints, so each name has its own
    # signature; no two names of the long rule share a marker, so resolving
    # them stays cheap.  The servant renames the names and shuffles the parts.
    from collections import Counter

    from gramconv.converge import replay_convergence
    from gramconv.grammar import rename_expr

    def grammar_of(prefix, root, shuffle):
        a = [n(f"{prefix}{i}") for i in range(9)]
        parts = [a[0], opt(a[1]), star(a[2]), plus(a[3]), a[4], opt(a[5]), star(a[6]),
                 plus(a[7]), VALUE_STR, VALUE_INT, a[8], a[8]][:k]
        shuffle(parts)
        return Grammar((root,), (p(root, seq(*parts)),) + tuple(
            p(f"{prefix}{i}", seq(VALUE_STR, *[VALUE_INT] * (i + 1)))
            for i in range(9) if a[i] in parts or opt(a[i]) in parts
            or star(a[i]) in parts or plus(a[i]) in parts))

    master = grammar_of("a", "m", lambda parts: None)
    servant = grammar_of("b", "s", random.Random(30).shuffle)
    report = guided_converge(master, servant)
    assert report.residue == []
    permutes = [step for step in report.structural_trace if step.op == "permute"]
    assert len(permutes) == 1 and len(permutes[0].args["order"]) == k
    replayed = replay_convergence(servant, report)
    mapping = report.mapping.as_dict()
    got = Counter((mapping.get(prod.lhs, prod.lhs), rename_expr(prod.rhs, mapping))
                  for prod in replayed.productions)
    assert got == Counter((prod.lhs, prod.rhs) for prod in master.productions)


def test_sequence_order_is_the_first_fitting_permutation():
    # on random part-fits-target tables, the order equals the first
    # permutation that itertools yields under which every part fits
    import itertools

    from gramconv.converge import _sequence_order

    rng = random.Random(5)
    for _ in range(2000):
        k = rng.randint(1, 7)
        density = rng.random()
        fits = [[rng.random() < density for _ in range(k)] for _ in range(k)]
        want = next((perm for perm in itertools.permutations(range(1, k + 1))
                     if all(fits[i][perm[i] - 1] for i in range(k))), None)
        # a cell that fits holds the steps of its walk, one that does not None
        cells = [[[] if fit else None for fit in row] for row in fits]
        assert _sequence_order(cells) == want


def test_replay_convergence_reaches_master_shape(fl_master_abstract, jaxb_model):
    from gramconv.converge import replay_convergence
    from gramconv.grammar import rename_expr
    report = guided_converge(fl_master_abstract, jaxb_model)
    replayed = replay_convergence(jaxb_model, report)
    mapping = report.mapping.as_dict()
    got = sorted(((mapping.get(prod.lhs, prod.lhs), rename_expr(prod.rhs, mapping))
                  for prod in replayed.productions), key=repr)
    want = sorted(((prod.lhs, prod.rhs) for prod in fl_master_abstract.productions),
                  key=repr)
    assert got == want


def test_replay_law_on_random_master_servant_pairs():
    # the traces replayed on the raw servant, renamed by the mapping, give
    # the master's rules; the servant's rule blocks are scattered, so the
    # match reads them from its rule-block index
    from collections import Counter

    from gramconv.converge import replay_convergence
    from gramconv.grammar import Production, names_in_order, rename_expr
    rng = random.Random(30)
    for size in (12, 16, 20):
        for _ in range(10):
            master = rooted_anf(rng, size)
            names = names_in_order(master)
            image = [f"s{i}" for i in range(len(names))]
            rng.shuffle(image)
            phi = dict(zip(names, image))
            rules = [Production(phi[prod.lhs], rename_expr(prod.rhs, phi))
                     for prod in master.productions]
            rng.shuffle(rules)
            servant = Grammar((phi[master.roots[0]],), tuple(rules))
            report = guided_converge(master, servant)
            assert report.residue == []
            replayed = replay_convergence(servant, report)
            mapping = report.mapping.as_dict()
            got = Counter((mapping.get(prod.lhs, prod.lhs),
                           rename_expr(prod.rhs, mapping), prod.label)
                          for prod in replayed.productions)
            assert got == Counter((prod.lhs, prod.rhs, prod.label)
                                  for prod in master.productions)


def _grouped_master(rng, size):
    """A rooted_anf grammar in which some sequence rules put two or three of
    their parts under a repeated group."""
    from gramconv.grammar import Production, Sequence
    rules = []
    for prod in rooted_anf(rng, size).productions:
        parts = prod.rhs.parts if isinstance(prod.rhs, Sequence) else ()
        if len(parts) >= 3 and rng.random() < 0.6:
            k = rng.randint(2, min(3, len(parts) - 1))
            at = rng.randint(0, len(parts) - k)
            group = rng.choice((star, plus))(seq(*parts[at:at + k]))
            prod = Production(prod.lhs, seq(*parts[:at], group, *parts[at + k:]))
        rules.append(prod)
    return Grammar((rules[0].lhs,), tuple(rules))


def _shuffled_sequences(rng):
    """A node function that shuffles the parts of every sequence."""
    from gramconv.grammar import Sequence

    def shuffle(node):
        if isinstance(node, Sequence):
            parts = list(node.parts)
            rng.shuffle(parts)
            return seq(*parts)
        return node
    return shuffle


def test_replay_law_with_residue_on_shuffled_groups():
    # permutations are recorded at rule level only, so a pair whose group
    # was shuffled goes to the residue; the replayed servant, renamed, is
    # then the matched master rules plus the renamed servant residue
    from collections import Counter

    from gramconv.converge import replay_convergence
    from gramconv.grammar import rename_expr
    rng = random.Random(6)
    residues = []
    for _ in range(100):
        master = _grouped_master(rng, rng.randint(8, 12))
        servant, _ = _planted_servant(rng, master, _shuffled_sequences(rng))
        try:
            report = guided_converge(master, servant)
        except ResolutionAmbiguity:
            continue
        mapping = report.mapping.as_dict()

        def renamed(prods):
            return Counter((mapping.get(prod.lhs, prod.lhs), rename_expr(prod.rhs, mapping))
                           for prod in prods)
        residue = [entry.production for entry in report.residue if entry.side == "servant"]
        got = renamed(replay_convergence(servant, report).productions)
        assert got == Counter((pair.right.lhs, pair.right.rhs)
                              for pair in report.pairs) + renamed(residue)
        residues.append(len(report.residue))
    assert len(residues) >= 90
    assert residues.count(0) >= 20 and len(residues) - residues.count(0) >= 20


def test_permutation_inside_a_group_goes_to_the_residue(tmp_path):
    from gramconv.cli import main
    from gramconv.interchange import serialize

    def grammar_of(r, x, a, b, group):
        return Grammar((r,), (p(r, seq(n(x), star(seq(*map(n, group))))),
                              p(x, VALUE_INT), p(a, VALUE_STR),
                              p(b, seq(VALUE_INT, VALUE_INT))))
    master = grammar_of("r", "x", "a", "b", ("a", "b"))
    servant = grammar_of("R", "X", "A", "B", ("B", "A"))
    report = guided_converge(master, servant)
    assert report.mapping.as_dict() == {"R": "r", "X": "x", "A": "a", "B": "b",
                                        "int": "int", "str": "str"}
    assert [(entry.side, entry.production) for entry in report.residue] == [
        ("servant", servant.productions[0]), ("master", master.productions[0])]
    assert report.structural_trace == []
    paths = []
    for name, g in (("master", master), ("servant", servant)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(serialize(g), encoding="utf-8")
    assert main(["converge", *map(str, paths)]) == 3


# -- metrics and rendering -----------------------------------------------------------


def test_sig_metrics_fl_master(fl_master):
    metrics = sig_metrics(fl_master)
    assert metrics.productions == 10
    assert metrics.footprint_histogram["1"] == 8
    assert metrics.signature_sizes[0] == ("program", 1)
    assert metrics.signature_sizes[1] == ("function", 2)


def test_sig_metrics_empty():
    metrics = sig_metrics(Grammar((), ()))
    assert metrics.productions == 0
    assert metrics.distinct_footprints == 0
    assert metrics.footprint_histogram == {}


def test_sig_metrics_normalized_servant(jaxb_anf):
    metrics = sig_metrics(jaxb_anf)
    # hand tally over the ten signatures: 1, 11, 111, 1*, *
    assert metrics.distinct_footprints == 5
    assert metrics.footprint_histogram == {"1": 8, "11": 1, "111": 1, "1*": 1, "*": 2}


def test_prodsig_table_rendering(fl_master):
    table = render_prodsig_table(fl_master)
    lines = table.splitlines()
    assert len(lines) == 10
    assert lines[0].startswith("p1 = program -> function+")
    assert "{<function, +>}" in lines[0]
    assert "{<expr, 1>, <str, 1+>}" in lines[1]


def test_match_report_rendering(fl_master_abstract, jaxb_model):
    report = guided_converge(fl_master_abstract, jaxb_model)
    text = render_match_report(report)
    assert text.count("=~=") == 6
    assert text.count("~w~") == 4
    assert "<Ops, operator>" in text


# -- renaming invariance --------------------------------------------------------------


def test_mapping_invariant_under_servant_rename(fl_master_abstract, jaxb_model):
    renamed = rename_nonterminal(jaxb_model, "Function", "Fn")
    report = guided_converge(fl_master_abstract, renamed)
    expected = dict(FL_MAPPING)
    expected["Fn"] = expected.pop("Function")
    assert report.mapping.as_dict() == expected
