import hashlib
import json
import random

import pytest

from gramconv.grammar import (
    EMPTY,
    EPSILON,
    VALUE_INT,
    VALUE_STR,
    NESTED_CHOICE,
    UNIT_CHILD,
    Choice,
    Grammar,
    Production,
    Selectable,
    SepListPlus,
    SepListStar,
    Sequence,
    Star,
    Terminal,
    children,
    choice,
    class_bits,
    n,
    opt,
    p,
    plus,
    render_production,
    sel,
    sepplus,
    seq,
    star,
    subterms,
    t,
    vocabulary,
)
from gramconv.converge import guided_converge
from gramconv.interchange import serialize
from gramconv.mutate import (
    MUTATION_KINDS,
    NAMING_CONVENTIONS,
    Mutation,
    MutationError,
    _deepest,
    _nested_choice,
    anf_check,
    apply_convention,
    mutate,
)
from gramconv.notation import parse_spec
from gramconv.recovery import recover
from gramconv.transform import apply_script, bidirectionalize, script_to_json

import oracles
from gen import (
    corpus,
    random_anf,
    random_expressible,
    random_grammar,
    renamed_copies,
    rooted_anf,
)


def run(g, kind, **params):
    return mutate(g, Mutation(kind, params))


# -- individual kinds ---------------------------------------------------------


def test_remove_terminals_single():
    result = run(Grammar((), (p("a", seq(t("x"), n("b"))),)), "remove-terminals")
    assert result.grammar.productions[0].rhs == n("b")
    assert result.changed_count == 1


def test_remove_terminals_bare_terminal_becomes_epsilon():
    from gramconv.grammar import EPSILON
    result = run(Grammar((), (p("a", t("x")),)), "remove-terminals")
    assert result.grammar.productions[0].rhs == EPSILON


def test_remove_selectors():
    g = Grammar((), (p("a", sel("tag", seq(n("b"), sel("leaf", t("x"))))),))
    result = run(g, "remove-selectors")
    assert result.grammar.productions[0].rhs == seq(n("b"), t("x"))
    assert not any(isinstance(sub, Selectable)
                   for prod in result.grammar.productions
                   for sub in subterms(prod.rhs))


def test_remove_labels():
    g = Grammar((), (Production("a", t("x"), "lab"), Production("a", t("y"))))
    result = run(g, "remove-labels")
    assert all(prod.label is None for prod in result.grammar.productions)
    assert result.changed_count == 1


def test_disciplined_rename_conventions():
    assert apply_convention("UPPER", "fooBar") == "FOOBAR"
    assert apply_convention("lower", "FooBar") == "foobar"
    assert apply_convention("CamelCase", "foo_bar") == "FooBar"
    assert apply_convention("CamelCase", "dash-low") == "DashLow"
    assert apply_convention("dash-lower", "FooBar") == "foo-bar"
    assert apply_convention("dash-lower", "HTTPServer") == "http-server"


def test_disciplined_rename_applies_to_all_names():
    g = Grammar((), (p("FooBar", seq(n("bazQux"), n("Missing"))),))
    result = run(g, "disciplined-rename", convention="dash-lower")
    voc = vocabulary(result.grammar)
    assert voc.defined == {"foo-bar"}
    assert voc.used == {"baz-qux", "missing"}


def test_disciplined_rename_collision_is_an_error():
    g = Grammar((), (p("Expr", n("expr")), p("expr", t("x"))))
    with pytest.raises(MutationError):
        run(g, "disciplined-rename", convention="lower")


def test_disciplined_rename_refuses_a_reserved_value_name():
    g = Grammar(("A",), (p("A", seq(n("STR"), n("B"))), p("STR", t("x")), p("B", t("y"))))
    with pytest.raises(MutationError, match="'STR' maps to reserved value name 'str'"):
        run(g, "disciplined-rename", convention="lower")


def test_disciplined_rename_exempts_values(jaxb_anf):
    result = run(jaxb_anf, "disciplined-rename", convention="lower")
    sig_rule = result.grammar.rules_of("expr")[1]
    from gramconv.grammar import VALUE_STR
    assert sig_rule.rhs == VALUE_STR


def test_reroot_to_top_skips_leaf_tops():
    g = Grammar((), (p("a", seq(t("x"), n("b"))), p("b", t("y")), p("q", t("z"))))
    result = run(g, "reroot-to-top")
    assert result.grammar.roots == ("a",)


def test_eliminate_top_drops_unreachable():
    g = Grammar(("a",), (p("a", n("b")), p("b", t("x")), p("junk", n("b"))))
    result = run(g, "eliminate-top")
    assert {prod.lhs for prod in result.grammar.productions} == {"a", "b"}


def test_extract_subgrammar(fl_master):
    result = run(fl_master, "extract-subgrammar", roots=["binary"])
    kept = {prod.lhs for prod in result.grammar.productions}
    assert kept == {"binary", "expr", "apply", "cond"}
    assert result.grammar.roots == ("binary",)


def test_extract_subgrammar_undefined_name(fl_master):
    with pytest.raises(MutationError):
        run(fl_master, "extract-subgrammar", roots=["ghost"])


def test_extract_subgrammar_duplicated_root(fl_master):
    with pytest.raises(MutationError, match="duplicate root 'binary'"):
        run(fl_master, "extract-subgrammar", roots=["binary", "cond", "binary"])


def test_all_vertical():
    g = Grammar((), (p("a", choice(n("b"), n("c"))), p("d", t("x")),
                     p("d", choice(t("y"), t("z")))))
    result = run(g, "all-vertical")
    assert not any(isinstance(prod.rhs, Choice) for prod in result.grammar.productions)
    assert len(result.grammar.rules_of("a")) == 2
    assert len(result.grammar.rules_of("d")) == 3


def test_all_horizontal(fl_master):
    result = run(fl_master, "all-horizontal")
    assert len(result.grammar.rules_of("expr")) == 1
    merged = result.grammar.rules_of("expr")[0].rhs
    assert merged == choice(fl_master.productions[2].rhs,
                            fl_master.productions[3].rhs,
                            n("apply"), n("binary"), n("cond"))


def test_all_horizontal_inverts_a_selector_nest_40_deep():
    body = n("x0")
    for k in range(40, 0, -1):
        body = sel(f"s{k}", choice(n(f"x{k}"), body))
    g = Grammar((), (p("a", body), p("a", n("z"))))
    result = run(g, "all-horizontal")
    assert result.invertible
    assert len(result.grammar.rules_of("a")) == 1
    inverse = [bidirectionalize(step).backward for step in reversed(result.trace)]
    assert apply_script(result.grammar, inverse) == g


def test_distribute_all_surfaces_and_folds():
    g = Grammar((), (
        p("a", seq(choice(n("b"), n("c")), n("d"))),
        p("q", star(choice(n("b"), n("c")))),
    ))
    result = run(g, "distribute-all")
    for prod in result.grammar.productions:
        for sub in subterms(prod.rhs):
            for kid in (sub.parts if hasattr(sub, "parts") else
                        sub.alternatives if hasattr(sub, "alternatives") else
                        [getattr(sub, "body", None)]):
                assert not isinstance(kid, Choice)


def test_distribute_all_reads_each_rule_after_the_previous_extract():
    # extracting x's first (a|b) folds it in x's second rule too, so that
    # rule offers nothing more to extract
    g = Grammar(("r",), (p("r", seq(n("x"), n("y"))),
                         p("x", star(choice(n("a"), n("b")))),
                         p("x", seq(n("c"), star(choice(n("a"), n("b"))))),
                         p("y", n("a")), p("y", n("b"))))
    result = run(g, "normalize-anf")
    assert [step.op for step in result.trace].count("extract") == 1
    assert result.grammar.rules_of("x_1") == (p("x_1", n("a")), p("x_1", n("b")))
    assert "x_2" not in result.grammar.names


def test_deyaccify_all():
    g = Grammar((), (p("A", n("B")), p("A", seq(n("A"), n("B"))),
                     p("B", n("C")), p("B", seq(n("B"), n("C"))), p("C", t("c"))))
    result = run(g, "deyaccify-all")
    assert result.grammar.rules_of("A")[0].rhs == plus(n("B"))
    assert result.grammar.rules_of("B")[0].rhs == plus(n("C"))
    assert all(step.op == "deyaccify" for step in result.trace)


def test_remove_lazy_inlines_and_unchains():
    g = Grammar(("s",), (
        p("s", seq(n("once"), n("twice"), n("twice"))),
        p("once", seq(t("x"), t("y"))),
        p("chainhost", n("target")),
        p("twice", t("t")),
        p("target", seq(t("z"), n("twice"))),
    ))
    result = run(g, "remove-lazy")
    defined = {prod.lhs for prod in result.grammar.productions}
    assert "once" not in defined
    assert "target" not in defined
    assert "twice" in defined  # used twice and never a chain target


def test_encode_seplists():
    from gramconv.grammar import sepstar
    g = Grammar((), (p("a", sepplus(n("b"), t(","))),))
    result = run(g, "encode-seplists")
    assert result.grammar.productions[0].rhs == seq(n("b"), star(seq(t(","), n("b"))))
    g2 = Grammar((), (p("a", sepstar(n("b"), t(","))),))
    result2 = run(g2, "encode-seplists")
    assert result2.grammar.productions[0].rhs == opt(seq(n("b"), star(seq(t(","), n("b")))))


def test_fold_groups():
    from gramconv.grammar import Optional, Plus, Sequence
    g = Grammar((), (
        p("a", star(seq(n("b"), n("c")))),
        p("q", seq(n("b"), choice(n("c"), n("d")), n("e"))),
    ))
    result = run(g, "fold-groups")
    for prod in result.grammar.productions:
        for sub in subterms(prod.rhs):
            if isinstance(sub, (Star, Plus, Optional)):
                assert not isinstance(sub.body, (Sequence, Choice))
            if isinstance(sub, Sequence):
                assert not any(isinstance(part, Choice) for part in sub.parts)
    # every step is an extract, so the trace inverts
    assert all(step.op == "extract" for step in result.trace)
    inverse = [bidirectionalize(step).backward for step in reversed(result.trace)]
    assert apply_script(result.grammar, inverse) == g


def test_normalize_anf_reproduces_expected_object_model(jaxb_model, jaxb_anf):
    result = run(jaxb_model, "normalize-anf")
    assert result.grammar == jaxb_anf
    assert anf_check(result.grammar) == []


def test_mutation_parameters_validated(fl_master):
    with pytest.raises(MutationError):
        run(fl_master, "disciplined-rename")
    with pytest.raises(MutationError):
        run(fl_master, "remove-terminals", convention="lower")
    with pytest.raises(MutationError):
        run(fl_master, "disciplined-rename", convention="SCREAMING")
    with pytest.raises(MutationError):
        mutate(fl_master, Mutation("negotiate-all"))


# -- anf_check ----------------------------------------------------------------


def test_anf_check_normalized_servant_is_clean(jaxb_anf):
    assert anf_check(jaxb_anf) == []


def test_anf_check_terminal_violates_condition_3():
    g = Grammar(("a",), (p("a", seq(t("x"), n("b"))),))
    assert [v.condition for v in anf_check(g)] == [3]


def test_anf_check_chain_mixing_violates_condition_8():
    g = Grammar(("a",), (p("a", n("b")), p("a", seq(n("c"), n("d")))))
    assert 8 in [v.condition for v in anf_check(g)]


def test_anf_check_condition_9_roots_vs_tops():
    g = Grammar((), (p("a", seq(n("b"), n("b"))), p("b", seq(n("c"), n("c")))))
    assert 9 in [v.condition for v in anf_check(g)]


def test_anf_violations_name_the_offender():
    g = Grammar(("a",), (Production("a", seq(t("x"), n("b")), "lab"),))
    messages = [str(v) for v in anf_check(g)]
    assert any("lab" in m for m in messages)
    assert any("'x'" in m for m in messages)


# -- cross-kind properties (full sweeps live in the acceptance suite) ---------


def test_trace_replay_matches_output():
    grammars = corpus(5, 30)
    for g in grammars:
        for kind in MUTATION_KINDS:
            params = {}
            if kind == "disciplined-rename":
                params = {"convention": "lower"}
            elif kind == "extract-subgrammar":
                defined = sorted(vocabulary(g).defined)
                if not defined:
                    continue
                params = {"roots": [defined[0]]}
            try:
                result = run(g, kind, **params)
            except MutationError:
                continue
            assert apply_script(g, result.trace) == result.grammar


def test_invertible_traces_restore_the_input():
    # the kinds realized via invertible operators: replaying the inverted
    # trace brings the pre-mutation grammar back
    claimed = ("all-vertical", "all-horizontal", "deyaccify-all", "fold-groups")
    for g in corpus(9, 60):
        for kind in claimed:
            result = run(g, kind)
            assert result.invertible
            inverse = [bidirectionalize(step).backward
                       for step in reversed(result.trace)]
            assert apply_script(result.grammar, inverse) == g


def test_changed_count_is_zero_on_fixpoint(jaxb_anf):
    again = run(jaxb_anf, "normalize-anf")
    assert again.changed_count == 0
    assert again.grammar == jaxb_anf


def test_lossy_kinds_are_marked():
    g = Grammar((), (p("a", t("x")),))
    lossy = ("remove-terminals", "remove-selectors", "remove-labels",
             "eliminate-top", "remove-lazy", "normalize-anf")
    for kind in lossy:
        assert not run(g, kind).invertible
    assert not run(g, "extract-subgrammar", roots=["a"]).invertible
    assert run(g, "reroot-to-top").invertible
    assert run(g, "encode-seplists").invertible
    assert run(g, "all-vertical").invertible
    assert run(g, "deyaccify-all").invertible


def test_anf_check_lists_violations_condition_by_condition():
    # each rule breaks conditions 2, 3, 4 and 6 in an interleaved walk order
    g = Grammar(("a",), (
        p("a", seq(sel("s", t("x")), star(choice(n("b"), n("c"))),
                   sepplus(n("b"), t(";")))),
        p("b", seq(t("y"), sel("r", opt(choice(n("c"), t("z")))))),
    ))
    assert [str(v) for v in anf_check(g)] == [
        "condition 2: rule a names a subexpression 's'",
        "condition 2: rule b names a subexpression 'r'",
        "condition 3: rule a contains terminal 'x'",
        "condition 3: rule a contains terminal ';'",
        "condition 3: rule b contains terminal 'y'",
        "condition 3: rule b contains terminal 'z'",
        "condition 4: rule a nests a choice under star",
        "condition 4: rule b nests a choice under optional",
        "condition 6: rule a contains a separator list",
    ]


# (condition, a grammar that breaks only it); condition 9 both ways: roots
# that are not the tops, and a cycle the roots do not reach
ANF_BREAKERS = [
    (1, Grammar(("a",), (p("a", seq(n("b"), VALUE_STR), label="l"), p("b", VALUE_INT)))),
    (2, Grammar(("a",), (p("a", seq(sel("s", n("b")), VALUE_STR)), p("b", VALUE_INT)))),
    (3, Grammar(("a",), (p("a", seq(t("x"), n("b"))), p("b", VALUE_INT)))),
    (4, Grammar(("a",), (p("a", star(choice(n("b"), VALUE_STR))), p("b", VALUE_INT)))),
    (5, Grammar(("a",), (p("a", choice(n("b"), VALUE_INT)), p("b", VALUE_STR)))),
    (6, Grammar(("a",), (p("a", sepplus(n("b"), n("c"))), p("b", VALUE_INT),
                         p("c", VALUE_STR)))),
    (7, Grammar(("a",), (p("a", seq(n("b"), VALUE_STR)), p("b", EPSILON)))),
    (8, Grammar(("a",), (p("a", n("b")), p("a", seq(n("b"), VALUE_STR)),
                         p("b", VALUE_INT)))),
    (9, Grammar((), (p("a", seq(n("b"), VALUE_STR)), p("b", VALUE_INT)))),
    (9, Grammar(("a",), (p("a", seq(n("b"), VALUE_STR)), p("b", VALUE_INT),
                         p("c", seq(n("d"), VALUE_INT)), p("d", plus(n("c")))))),
]


@pytest.mark.parametrize("condition, g", ANF_BREAKERS)
def test_anf_check_agrees_with_the_checker_it_replaced_on_each_condition(condition, g):
    violations = anf_check(g)
    assert violations == oracles.anf_check(g)
    assert [v.condition for v in violations] == [condition]


def test_anf_check_agrees_with_the_checker_it_replaced_on_generated_grammars():
    # every violation, its text and its place in the list, on grammars of
    # every construct, on expressible ones, on ANF ones and on normal forms
    rng = random.Random(2400)
    grammars = corpus(2401, 600, max_productions=12) + [
        random_expressible(rng, max_productions=12) for _ in range(200)]
    grammars += [random_anf(rng, rng.randint(2, 8)) for _ in range(100)]
    grammars += [rooted_anf(rng, rng.randint(4, 30)) for _ in range(50)]
    grammars += [run(g, "normalize-anf").grammar for g in grammars[:100]]
    counts: dict[int, int] = {}
    for g in grammars:
        violations = anf_check(g)
        assert violations == oracles.anf_check(g)
        for v in violations:
            counts[v.condition] = counts.get(v.condition, 0) + 1
    # the corpora break every condition many times over
    assert sorted(counts) == list(range(1, 10))
    assert min(counts.values()) >= 50


def _unit_children() -> Grammar:
    """Rules built with the direct constructors, which keep the unit
    children (an epsilon part, an empty alternative) that the smart
    constructors drop; one rule also holds a selector, a terminal and a
    separator list, and one holds none of those and no unit child."""
    return Grammar(("top",), (
        p("top", Sequence((n("a"), EPSILON, n("b")))),
        p("a", Choice((VALUE_STR, EMPTY))),
        p("a", star(Sequence((EPSILON, n("b"), VALUE_INT)))),
        p("b", opt(Choice((EMPTY, n("a"), VALUE_INT)))),
        p("b", plus(n("a"))),
        p("a", Sequence((sel("s", sepplus(n("b"), t(","))), EPSILON))),
    ))


# kind -> (rendered rules, step ops, sha256 of the `_outcome` text), as
# they were before the rewrite phases skipped rules
UNIT_CHILD_OUTCOMES = {
    "remove-selectors": (
        ["p('', top, seq([a, b]))", "p('', a, str)", "p('', a, *(seq([b, int])))",
         "p('', b, ?(choice([a, int])))", "p('', b, +(a))", "p('', a, sepplus(b, \",\"))"],
        ["set-node"] * 5,
        "8994ee6dccb9dc0876aa29acd31a2e46254759f4b4f7df96caf35ebe069bf081"),
    "remove-terminals": (
        ["p('', top, seq([a, b]))", "p('', a, str)", "p('', a, *(seq([b, int])))",
         "p('', b, ?(choice([a, int])))", "p('', b, +(a))",
         "p('', a, sel(s, sepplus(b, epsilon)))"],
        ["set-node"] * 5,
        "b21b043d0c7ed736e8f85edc0257edd0e89da6c8af5e1e284abbe09736a76911"),
    "encode-seplists": (
        ["p('', top, seq([a, b]))", "p('', a, str)", "p('', a, *(seq([b, int])))",
         "p('', b, ?(choice([a, int])))", "p('', b, +(a))",
         "p('', a, sel(s, seq([b, *(seq([\",\", b]))])))"],
        ["set-node"] * 5,
        "9997033ae440f22cea841b0873d1ea9cf2c13464ff0aaa57b193cd620df0686f"),
    "distribute-all": (
        ["p('', top, seq([a, b]))", "p('', a, str)", "p('', a, *(seq([b, int])))",
         "p('', b, ?(b_1))", "p('', b, +(a))", "p('', a, sel(s, sepplus(b, \",\")))",
         "p('', b_1, choice([a, int]))"],
        ["set-node"] * 5 + ["extract"],
        "e93b94c2323fcd165c81a009e807ad6c83d5653c3d65148debbc59c784490b2f"),
    "normalize-anf": (
        ["p('', top, seq([a, b]))", "p('', a, str)", "p('', a, a_1)", "p('', b, ?(b_1))",
         "p('', b, +(a))", "p('', a, a_2)", "p('', b_1, a)", "p('', b_1, int)",
         "p('', a_1, *(seq([b, int])))", "p('', a_2, seq([b, *(b)]))"],
        ["set-node"] * 7 + ["extract", "vertical", "extract", "extract"],
        "16e1b5eeb7508f0453fd71c2b4cb39c00c26e9d90b74ce745d06b60e1a998a0c"),
}


@pytest.mark.parametrize("kind", sorted(UNIT_CHILD_OUTCOMES))
def test_rewrite_phases_drop_unit_children_that_the_direct_constructors_keep(kind):
    # a rule is skipped only when it holds none of its phase's classes and
    # no unit child: a skip on the classes alone leaves these rules as built
    rules, ops, digest = UNIT_CHILD_OUTCOMES[kind]
    result = run(_unit_children(), kind)
    assert [render_production(prod) for prod in result.grammar.productions] == rules
    assert [step.op for step in result.trace] == ops
    outcome = _outcome(_unit_children(), kind, {})
    assert hashlib.sha256(outcome.encode()).hexdigest() == digest


def _with_unit_children(rng, g: Grammar) -> Grammar:
    """g with a unit child in every rule, built with the direct
    constructors: an epsilon part in a sequence, an empty alternative in a
    choice, and otherwise an optional choice of the rhs and empty."""
    rules = []
    for prod in g.productions:
        rhs = prod.rhs
        if isinstance(rhs, Sequence):
            at = rng.randrange(len(rhs.parts) + 1)
            rhs = Sequence(rhs.parts[:at] + (EPSILON,) + rhs.parts[at:])
        elif isinstance(rhs, Choice):
            rhs = Choice(rhs.alternatives + (EMPTY,))
        else:
            rhs = opt(Choice((rhs, EMPTY)))
        rules.append(Production(prod.lhs, rhs, prod.label))
    return Grammar(g.roots, tuple(rules))


# the classes each rewrite phase acts on: remove-selectors, remove-terminals,
# encode-seplists and distribution's dnf pass
PHASE_CLASSES = [(Selectable,), (Terminal,), (SepListStar, SepListPlus), (Choice,)]


def test_rule_skips_agree_with_the_walk_they_replaced():
    # a rewrite phase skips a rule exactly when the walk it replaced found
    # none of the phase's classes and no unit child, and distribution's
    # offender scan skips only rules in which no offender can be found
    rng = random.Random(2700)
    grammars = corpus(2701, 300, max_productions=12) + [_unit_children()]
    grammars += [_with_unit_children(rng, g) for g in grammars[:100]]
    held = {True: 0, False: 0}
    scanned = 0
    for g in grammars:
        for prod, mask in zip(g.productions, g.masks):
            for classes in PHASE_CLASSES:
                found = bool(mask & (class_bits(classes) | UNIT_CHILD))
                assert found == oracles._holds(prod.rhs, classes), (prod, classes)
                held[found] += 1
            if mask & NESTED_CHOICE:
                scanned += 1
            else:
                assert _deepest(prod.rhs, _nested_choice) is None
                assert all(type(kid) is not Choice for sub in subterms(prod.rhs)
                           for kid in children(sub))
    assert min(held.values()) >= 1000 and scanned >= 200
    unit = _unit_children()
    # the first rule holds no class of any phase: only its epsilon part
    # keeps it from being skipped
    assert [bool(mask & UNIT_CHILD) for mask in unit.masks] == [
        True, True, True, True, False, True]
    for classes in PHASE_CLASSES[:3]:
        assert oracles._holds(unit.productions[0].rhs, classes)
        assert not unit.masks[0] & class_bits(classes)


def test_a_rewrite_hands_back_another_object_exactly_when_it_changes_the_rhs(monkeypatch):
    # the rewrite phases and `distribute` read "changed" as "another
    # object"; over normalize-anf of corpus draws, with and without unit
    # children, and `distribute` of every name, each rewrite they run
    # changes its rhs exactly when it hands back another object
    import gramconv.mutate as M
    import gramconv.transform as T
    from gramconv.transform import TransformError
    seen = {True: 0, False: 0}

    def watched(rewrite):
        def check(rhs):
            new = rewrite(rhs)
            assert (new is not rhs) == (new != rhs), rhs
            seen[new is not rhs] += 1
            return new
        return check
    rewrite_rules = M._rewrite_rules
    monkeypatch.setattr(M, "_rewrite_rules",
                        lambda rec, rewrite, classes: rewrite_rules(rec, watched(rewrite), classes))
    monkeypatch.setattr(T, "dnf", watched(T.dnf))
    rng = random.Random(3300)
    grammars = corpus(3301, 150, max_productions=10)
    grammars += [_with_unit_children(rng, g) for g in grammars[:50]] + [_unit_children()]
    for g in grammars:
        run(g, "normalize-anf")
        for name in g.blocks:
            try:
                T.distribute(g, name)
            except TransformError:
                pass
    assert min(seen.values()) >= 500


# -- exact outputs of every kind ----------------------------------------------


def _digest_corpus() -> list[Grammar]:
    rng = random.Random(1100)
    draw = (random_grammar, random_expressible)
    return [draw[i % 2](rng, max_productions=10) for i in range(1200)]


def _digest_params(kind: str, g: Grammar, i: int) -> dict:
    if kind == "disciplined-rename":
        return {"convention": NAMING_CONVENTIONS[i % len(NAMING_CONVENTIONS)]}
    if kind == "extract-subgrammar":
        defined = list(g.blocks)
        if i % 5 == 0:
            return {"roots": ["zz-undefined"]}
        roots = [defined[i % len(defined)]]
        if i % 3 == 0 and len(defined) > 1:
            roots.append(defined[(i + 1) % len(defined)])
        return {"roots": roots}
    return {}


def _outcome(g: Grammar, kind: str, params: dict) -> str:
    try:
        result = run(g, kind, **params)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    trace = json.dumps(script_to_json(result.trace), ensure_ascii=False)
    return serialize(result.grammar) + trace


# one sha256 per kind over its outcome on each grammar of the corpus: the
# serialized result grammar and the trace, or the error type and text
MUTATION_DIGESTS = {
    "remove-terminals": "6dad5e65c4ad2e3ea09e4504700b1e1cc6b71d21736b134369ac0f84a89deda8",
    "remove-selectors": "c2b6699e09a7fb49e7f4b8f5a4191d23872dc85acdd2f500659e1a8e3cd1499d",
    "remove-labels": "a9e03b653fae50b48e5df6f5ce761bc0830fb54abd569522599861a32f13ab45",
    "disciplined-rename": "9f079a0e6dab9f2e18f9e6f1c61462f3de129752fca90e0d49e1d08779f4470a",
    "reroot-to-top": "bb93b40bba6ef448df48392885f77ff1a58fdc45a34a6e16bf3e9088c8cb6790",
    "eliminate-top": "7cca006fba7e0a56227bd85806b4443daa5abc5cde81f7db92870afcd0f406cc",
    "extract-subgrammar": "fa773935eb839b15ab6bb62744bf97a7e195b6f45d807600c7fa7acf2a07ac60",
    "all-vertical": "551d275d9508e7c6a6e00ed18acf39616b2a17451a9c8a74e360a5a796b12cc7",
    "all-horizontal": "7491158bbf8dc51771427176cd9bc70b400a31182565f4489b1279bb4f31c4a2",
    "distribute-all": "9b96dc8a7eeb59f583fad396581b16e3351154004efb515766983bb1a9d7f2f5",
    "potentially-horizontal-to-vertical": "fef716035531d073ba3c69204bf82284a5bb89a251fadbe3b60d321cef1d5756",
    "deyaccify-all": "943ee1e356978ef67d72fb3349201721c38295a3888c1e009e4474f64eef38b1",
    "remove-lazy": "c59ac8e211f190d86379a90dcbca28a2f265bcdaaf3b50e515cf2d963ee7cb23",
    "normalize-anf": "a9496a336e53b9cd74e6f62b43e19e5f9c7be90ba57b6b6815f249c54a7eb4ca",
    "fold-groups": "904a53c6a68e293806953ea134b8f32a4505254a4532f7a24721c127171b4dd8",
    "encode-seplists": "8519164c1924692f8e2bd0f24878b9e3970d1024eaa3ddc106f786ddce7cb357",
}


@pytest.fixture(scope="module")
def digest_corpus():
    return _digest_corpus()


@pytest.mark.parametrize("kind", MUTATION_KINDS)
def test_every_kind_reproduces_its_pinned_outputs(kind, digest_corpus):
    digest = hashlib.sha256()
    for i, g in enumerate(digest_corpus):
        digest.update(_outcome(g, kind, _digest_params(kind, g, i)).encode())
        digest.update(b"\0")
    assert digest.hexdigest() == MUTATION_DIGESTS[kind]


# the digests above come from grammars of at most 10 rules; ten renamed
# copies of lib2to3 (950 rules) give real block sizes and long splices
LIB2TO3_X10_DIGEST = "42324fc82e9600ee6c852c016358265b4fa52cf8e1c37d7807be5ecc3abf29e4"


def test_normalize_anf_of_ten_lib2to3_copies_is_pinned(data_dir):
    pgen = parse_spec((data_dir / "pgen.edd").read_text(encoding="utf-8"))
    g = recover((data_dir / "lib2to3_Grammar.txt").read_text(encoding="utf-8"), pgen).grammar
    copies = renamed_copies(g, 10)
    assert len(copies.productions) == 950
    outcome = _outcome(copies, "normalize-anf", {})
    assert hashlib.sha256(outcome.encode()).hexdigest() == LIB2TO3_X10_DIGEST


# the two kinds that ask the name index who uses a name, on five renamed
# copies of lib2to3 (475 rules)
LIB2TO3_X5_DIGESTS = {
    ("remove-lazy", None): "a897ab9be5e04ed4a563b8fddb7e5488cf82b4683769551d31c628f27d165ddb",
    ("disciplined-rename", "UPPER"):
        "40c79e350b8b04f312d7477425e650115c8651ffcf72bf22a61530a0992af620",
    ("disciplined-rename", "CamelCase"):
        "8d011947df32c9d3641b7b31a452b66557d726872154be635d926dbef7f11382",
}


@pytest.mark.parametrize("kind, convention", sorted(LIB2TO3_X5_DIGESTS, key=str))
def test_index_reading_kinds_on_five_lib2to3_copies_are_pinned(kind, convention, data_dir):
    pgen = parse_spec((data_dir / "pgen.edd").read_text(encoding="utf-8"))
    g = recover((data_dir / "lib2to3_Grammar.txt").read_text(encoding="utf-8"), pgen).grammar
    copies = renamed_copies(g, 5)
    assert len(copies.productions) == 475
    params = {"convention": convention} if convention else {}
    outcome = _outcome(copies, kind, params)
    assert hashlib.sha256(outcome.encode()).hexdigest() == LIB2TO3_X5_DIGESTS[kind, convention]


def _nest(depth: int) -> Grammar:
    """a -> (y | (y | ... (y | y)* ...)*)*, `depth` starred choices deep."""
    body = n("y")
    for _ in range(depth):
        body = star(choice(n("y"), body))
    return Grammar(("a",), (p("a", body),))


@pytest.mark.parametrize("depth", [64, 100])
def test_deep_choice_nests_distribute_and_normalize(depth):
    # a nest needs one distribution round per level, more than a fixed cap
    # of 64 rounds allows
    spread = run(_nest(depth), "distribute-all")
    assert [step.op for step in spread.trace] == ["extract"] * depth
    normal = run(_nest(depth), "normalize-anf")
    assert anf_check(normal.grammar) == []
    assert apply_script(_nest(depth), normal.trace) == normal.grammar
    report = guided_converge(normal.grammar, _nest(depth))
    assert report.residue == [] and report.warnings == []
    assert all(a == b for a, b in report.mapping.pairs)


def test_many_sibling_choices_distribute_one_round_each():
    # each round folds one offender per rule, so 70 distinct sibling choices
    # under repetitions take 70 rounds that act
    g = Grammar(("a",), (p("a", seq(*(star(choice(n(f"y{k}"), n("z"))) for k in range(70)))),))
    assert len(run(g, "distribute-all").trace) == 70
    assert anf_check(run(g, "normalize-anf").grammar) == []


# normalize-anf's outcomes (result grammar and trace) on the nests of depth
# 1-63 and on a seed-7 corpus, as they were when both phases that now take
# their round caps from the grammar stopped after 64 rounds
NEST_DIGEST = "ca266c8f2b680653ae4762bb91a2793a02b47b27f9c13a940a0f89eb00af96f4"
SEED_7_DIGEST = "d38cbd99d97b19690593296e35e983a8d82773fe86eaf49e43728d8f777ccdc2"


def test_normalize_anf_outcomes_on_nests_up_to_63_are_pinned():
    digest = hashlib.sha256()
    for depth in range(1, 64):
        digest.update(_outcome(_nest(depth), "normalize-anf", {}).encode() + b"\0")
    assert digest.hexdigest() == NEST_DIGEST


def test_normalize_anf_outcomes_on_a_seed_7_corpus_are_pinned():
    digest = hashlib.sha256()
    for g in corpus(7, 300, max_productions=12):
        digest.update(_outcome(g, "normalize-anf", {}).encode() + b"\0")
    assert digest.hexdigest() == SEED_7_DIGEST
