import pytest

from gramconv.grammar import (
    Grammar,
    Production,
    Terminal,
    choice,
    n,
    p,
    plus,
    seq,
    star,
    subterms,
    t,
    vocabulary,
)
from gramconv.transform import (
    ScriptError,
    TransformError,
    TransformStep,
    apply_script,
    bidirectionalize,
    chain,
    detect_yaccified,
    deyaccify,
    distribute,
    dnf,
    extract,
    factor,
    horizontal,
    inline,
    rename_nonterminal,
    unchain,
    vertical,
    yaccify,
)

from gen import corpus
from oracles import language


def shape(expr):
    return [type(sub).__name__ for sub in subterms(expr)]


# -- rename -----------------------------------------------------------------


def test_rename_fl_binary_rule(fl_master):
    renamed = rename_nonterminal(fl_master, "expr", "expression")
    binary = renamed.rules_of("binary")[0]
    assert binary.rhs == seq(n("expression"), n("operator"), n("expression"))
    assert "expr" not in vocabulary(renamed).defined


def test_rename_roundtrip(fl_master):
    g = rename_nonterminal(rename_nonterminal(fl_master, "expr", "zz"), "zz", "expr")
    assert g == fl_master


def test_rename_rejects_existing_target(fl_master):
    with pytest.raises(TransformError):
        rename_nonterminal(fl_master, "expr", "binary")
    with pytest.raises(TransformError):
        rename_nonterminal(fl_master, "nosuch", "zz")


def test_rename_updates_roots(fl_master):
    renamed = rename_nonterminal(fl_master, "program", "unit")
    assert renamed.roots == ("unit",)


def test_rename_preserves_shape_property():
    for g in corpus(17, 80):
        voc = vocabulary(g)
        names = sorted(voc.defined | voc.used)
        if not names:
            continue
        renamed = rename_nonterminal(g, names[0], "zz99")
        assert len(renamed.productions) == len(g.productions)
        for before, after in zip(g.productions, renamed.productions):
            assert shape(before.rhs) == shape(after.rhs)
        terminals = sorted(sub.text for prod in g.productions
                           for sub in subterms(prod.rhs) if isinstance(sub, Terminal))
        terminals_after = sorted(sub.text for prod in renamed.productions
                                 for sub in subterms(prod.rhs)
                                 if isinstance(sub, Terminal))
        assert terminals == terminals_after


# -- extract / inline --------------------------------------------------------


def test_extract_and_inline_inverse():
    g = Grammar((), (p("a", seq(t("x"), n("b"), t("x"))), p("b", t("y"))))
    extracted = extract(g, "q", t("x"))
    assert extracted.rules_of("a")[0].rhs == seq(n("q"), n("b"), n("q"))
    assert extracted.rules_of("q")[0].rhs == t("x")
    assert inline(extracted, "q") == g


def test_extract_requires_fresh_and_occurring():
    g = Grammar((), (p("a", t("x")),))
    with pytest.raises(TransformError):
        extract(g, "a", t("x"))
    with pytest.raises(TransformError):
        extract(g, "q", t("zzz"))


def test_inline_of_root_fails(fl_master):
    with pytest.raises(TransformError):
        inline(fl_master, "program")


def test_inline_requires_single_rule(fl_master):
    with pytest.raises(TransformError):
        inline(fl_master, "expr")


def test_extract_scoped():
    g = Grammar((), (p("a", seq(t("x"), n("c"))), p("b", seq(t("x"), n("c")))))
    scoped = extract(g, "q", t("x"), scope="a")
    assert scoped.rules_of("a")[0].rhs == seq(n("q"), n("c"))
    assert scoped.rules_of("b")[0].rhs == seq(t("x"), n("c"))


def test_extract_and_chain_reject_an_index_past_the_last_slot():
    g = Grammar((), (p("a", seq(t("x"), n("b"))), p("b", t("y")), p("c", n("a"))))
    with pytest.raises(TransformError, match="extract: the grammar has no slot #99"):
        extract(g, "q", t("x"), index=99)
    with pytest.raises(TransformError, match="chain: the grammar has no slot #4"):
        chain(g, p("c", n("q")), index=4)
    with pytest.raises(ScriptError, match="step 0 \\(extract\\): .*no slot #4"):
        apply_script(g, [TransformStep("extract", {"name": "q", "expr": t("y"), "index": 4})])
    # every slot from the first to just past the last rule is valid
    for index in range(4):
        assert extract(g, "q", t("x"), index=index).productions[index] == p("q", t("x"))
        assert chain(g, p("c", n("q")), index=index).productions[index] == p("q", n("a"))


# -- chain / unchain ---------------------------------------------------------


def test_chain_fl_p3(fl_master):
    chained = chain(fl_master, p("expr", n("strexpr")),
                    target=fl_master.productions[2].rhs)
    rules = chained.rules_of("expr")
    assert rules[0].rhs == n("strexpr")
    assert chained.rules_of("strexpr")[0].rhs == fl_master.productions[2].rhs
    assert unchain(chained, "strexpr") == fl_master


def test_chain_unchain_inverse_simple():
    g = Grammar((), (p("a", seq(n("b"), t("x"))), p("b", t("y"))))
    chained = chain(g, p("a", n("c")))
    assert unchain(chained, "c") == g


def test_unchain_rejects_multiple_uses():
    g = Grammar((), (p("a", n("c")), p("b", seq(n("c"), n("c"))), p("c", t("x"))))
    with pytest.raises(TransformError):
        unchain(g, "c")


def test_chain_needs_target_for_multi_rule_lhs(fl_master):
    with pytest.raises(TransformError):
        chain(fl_master, p("expr", n("strexpr")))


# -- vertical / horizontal ---------------------------------------------------


def test_horizontal_fl_expr(fl_master):
    merged = horizontal(fl_master, "expr")
    rules = merged.rules_of("expr")
    assert len(rules) == 1
    assert rules[0].rhs == choice(fl_master.productions[2].rhs,
                                  fl_master.productions[3].rhs,
                                  n("apply"), n("binary"), n("cond"))
    assert vertical(merged, "expr") == fl_master


def test_vertical_requires_choice():
    g = Grammar((), (p("a", t("x")),))
    with pytest.raises(TransformError):
        vertical(g, "a")


def test_horizontal_requires_two_rules():
    g = Grammar((), (p("a", t("x")),))
    with pytest.raises(TransformError):
        horizontal(g, "a")


def test_labels_travel_through_selectors():
    g = Grammar((), (Production("a", t("x"), "one"), Production("a", t("y"), "two")))
    merged = horizontal(g, "a")
    assert vertical(merged, "a") == g


# -- factor / distribute -----------------------------------------------------


def test_distribute_textbook_case():
    g = Grammar((), (p("a", seq(choice(n("b"), n("c")), n("d"))),))
    spread = distribute(g, "a")
    assert spread.rules_of("a")[0].rhs == choice(seq(n("b"), n("d")),
                                                 seq(n("c"), n("d")))


def test_distribute_flat_rhs_is_an_error():
    g = Grammar((), (p("a", seq(n("b"), n("d"))),))
    with pytest.raises(TransformError):
        distribute(g, "a")


def test_factor_both_directions():
    factored = seq(choice(n("b"), n("c")), n("d"))
    spread = dnf(factored)
    g = Grammar((), (p("a", factored),))
    there = factor(g, "a", factored, spread)
    assert there.rules_of("a")[0].rhs == spread
    assert factor(there, "a", spread, factored) == g


def test_factor_rejects_nonequivalent_operands():
    g = Grammar((), (p("a", seq(choice(n("b"), n("c")), n("d"))),))
    with pytest.raises(TransformError):
        factor(g, "a", g.productions[0].rhs, seq(n("b"), n("d")))


def test_factor_distribute_preserve_language():
    g = Grammar((), (
        p("s", seq(choice(t("x"), t("y")), choice(t("u"), seq(t("v"), t("w"))))),
    ))
    before = language(g, "s", 6)
    spread = distribute(g, "s")
    assert language(spread, "s", 6) == before
    back = factor(spread, "s", spread.productions[0].rhs, g.productions[0].rhs)
    assert language(back, "s", 6) == before
    assert back == g


# -- deyaccify / yaccify -----------------------------------------------------


def test_deyaccify_left_base_pattern():
    g = Grammar((), (p("A", n("B")), p("A", seq(n("A"), n("B"))), p("B", t("b"))))
    out = deyaccify(g, "A")
    assert out.rules_of("A")[0].rhs == plus(n("B"))


def test_deyaccify_mirror_pattern_language_equal():
    g = Grammar((), (p("A", n("B")), p("A", seq(n("B"), n("A"))), p("B", t("b"))))
    out = deyaccify(g, "A")
    assert out.rules_of("A")[0].rhs == plus(n("B"))
    assert language(out, "A", 5) == language(g, "A", 5)


def test_deyaccify_general_step_shapes():
    left = Grammar((), (p("A", n("B")), p("A", seq(n("A"), n("C")))))
    assert deyaccify(left, "A").rules_of("A")[0].rhs == seq(n("B"), star(n("C")))
    right = Grammar((), (p("A", n("B")), p("A", seq(n("C"), n("A")))))
    assert deyaccify(right, "A").rules_of("A")[0].rhs == seq(star(n("C")), n("B"))


def test_deyaccify_requires_pattern(fl_master):
    with pytest.raises(TransformError):
        deyaccify(fl_master, "expr")


def test_yaccify_deyaccify_roundtrip():
    for style in ("left", "right"):
        g = Grammar((), (p("A", plus(n("B"))), p("B", t("b"))))
        encoded = yaccify(g, "A", style)
        assert detect_yaccified(encoded, "A")[0] == style
        assert deyaccify(encoded, "A", style) == g
        assert language(encoded, "A", 5) == language(g, "A", 5)


# -- scripts -----------------------------------------------------------------


def test_apply_script_inverse_pair(fl_master):
    steps = [TransformStep("rename", {"from": "expr", "to": "zz"}),
             TransformStep("rename", {"from": "zz", "to": "expr"})]
    assert apply_script(fl_master, steps) == fl_master


def test_apply_script_empty_is_identity(fl_master):
    assert apply_script(fl_master, []) == fl_master


def test_apply_script_atomicity_reports_index(fl_master):
    steps = [TransformStep("rename", {"from": "expr", "to": "zz"}),
             TransformStep("rename", {"from": "zz", "to": "expr"}),
             TransformStep("rename", {"from": "ghost", "to": "gone"})]
    with pytest.raises(ScriptError) as err:
        apply_script(fl_master, steps)
    assert err.value.index == 2
    assert err.value.grammar == fl_master


def test_unsupported_operator():
    with pytest.raises(TransformError):
        apply_script(Grammar((), ()), [TransformStep("negotiate", {})])


# -- bidirectionalize --------------------------------------------------------


def test_bidirectionalize_rename():
    pair = bidirectionalize(TransformStep("rename", {"from": "x", "to": "y"}))
    assert pair.backward == TransformStep("rename", {"from": "y", "to": "x"})


def test_bidirectionalize_extract_is_inline():
    pair = bidirectionalize(TransformStep("extract", {"name": "q", "expr": t("x")}))
    assert pair.backward.op == "inline"
    assert pair.backward.args["name"] == "q"


def test_bidirectionalize_deyaccify_needs_style():
    with pytest.raises(TransformError):
        bidirectionalize(TransformStep("deyaccify", {"name": "A"}))
    pair = bidirectionalize(TransformStep("deyaccify", {"name": "A", "style": "left"}))
    assert pair.backward == TransformStep("yaccify", {"name": "A", "style": "left"})


def test_bidirectionalize_rejects_unknown_operator():
    with pytest.raises(TransformError):
        bidirectionalize(TransformStep("negotiate", {}))


def test_bidirectional_roundtrip_on_fl(fl_master):
    step = TransformStep("rename", {"from": "expr", "to": "expression"})
    pair = bidirectionalize(step)
    there = apply_script(fl_master, [pair.forward])
    assert apply_script(there, [pair.backward]) == fl_master


def test_define_refuses_a_defined_name(fl_master):
    # its inverse, eliminate, would drop every rule of the name
    step = TransformStep("define", {"name": "expr", "rhs": n("x")})
    with pytest.raises(ScriptError, match="step 0 \\(define\\): define: 'expr' is already defined"):
        apply_script(fl_master, [step])


@pytest.mark.parametrize("name", ["fresh", "operator"])  # a new name, a used-but-undefined one
def test_define_then_its_inverse_gives_back_the_input(fl_master, name):
    assert name not in fl_master.blocks and (name in fl_master) == (name == "operator")
    pair = bidirectionalize(TransformStep("define", {"name": name, "rhs": seq(n("expr"), t("+"))}))
    there = apply_script(fl_master, [pair.forward])
    assert there.rules_of(name) == (p(name, seq(n("expr"), t("+"))),)
    assert apply_script(there, [pair.backward]) == fl_master


# -- the operator registry ----------------------------------------------------


def _sample_steps():
    """One step per registry operator, carrying every argument its spec
    names (recorded operands included)."""
    from gramconv.transform import _OPS
    samples = {"name": "a", "names": ["a", "b"], "label": "l", "style": "left",
               "index": 1, "path": [0, 1], "order": [2, 1],
               "expr": seq(n("a"), star(t("x")))}
    return [TransformStep(op, {key: samples[kind.rstrip("?")]
                               for key, kind in entry.args.items()})
            for op, entry in _OPS.items()]


def test_every_inverse_is_a_registry_operator():
    from gramconv.transform import _OPS
    for step in _sample_steps():
        if _OPS[step.op].inverse is None:
            # eliminate drops whole rule blocks and records none of them
            assert step.op == "eliminate"
            with pytest.raises(TransformError):
                bidirectionalize(step)
            continue
        backward = bidirectionalize(step).backward
        assert backward.op in _OPS
        for key in _OPS[backward.op].args:
            assert key in backward.args or _OPS[backward.op].args[key].endswith("?")


def test_step_json_roundtrip_for_every_operator():
    import json
    from gramconv.transform import step_from_json, step_to_json
    recorded = set()
    for step in _sample_steps():
        doc = json.loads(json.dumps(step_to_json(step)))
        assert step_from_json(doc) == step
        recorded |= set(step.args)
    assert {"body", "before", "previous"} <= recorded


def test_missing_recorded_operand_blocks_inversion():
    with pytest.raises(TransformError, match="recorded 'body'"):
        bidirectionalize(TransformStep("inline", {"name": "a"}))
    with pytest.raises(TransformError, match="recorded 'previous'"):
        bidirectionalize(TransformStep("set-label", {"lhs": "a", "pos": 0, "label": "x"}))


@pytest.mark.parametrize("op, args", [
    ("set-label", {"lhs": "expr", "pos": -1, "label": "x"}),
    ("set-label", {"lhs": "expr", "pos": True, "label": "x"}),
    ("set-label", {"lhs": "expr", "pos": "0", "label": "x"}),
    ("set-node", {"lhs": "expr", "pos": 0, "path": [-1], "expr": n("q")}),
    ("set-node", {"lhs": "expr", "pos": 0, "path": 5, "expr": n("q")}),
    ("insert-rule", {"lhs": "expr", "pos": -1, "rhs": n("q")}),
    ("rename", {"from": "program", "to": 5}),
    ("rename", {"from": "program", "to": ""}),
    ("define", {"name": "q", "rhs": "x"}),
    ("set-roots", {"roots": "program"}),
    ("permute", {"lhs": "binary", "pos": 0, "order": [3, 2, False]}),
    ("yaccify", {"name": "expr", "style": "up"}),
])
def test_malformed_arguments_are_rejected(fl_master, op, args):
    with pytest.raises(ScriptError, match="argument"):
        apply_script(fl_master, [TransformStep(op, args)])


def test_set_roots_rejects_a_duplicated_root(fl_master):
    step = TransformStep("set-roots", {"roots": ["program", "expr", "program"]})
    with pytest.raises(TransformError, match="set-roots: duplicate root 'program'"):
        apply_script(fl_master, [step])


def test_missing_argument_message_is_kept(fl_master):
    with pytest.raises(ScriptError, match="rename: missing argument 'to'"):
        apply_script(fl_master, [TransformStep("rename", {"from": "expr"})])
    with pytest.raises(TransformError, match="unsupported operator 'negotiate'"):
        apply_script(fl_master, [TransformStep("negotiate", {})])


@pytest.mark.parametrize("op, args, name", [
    ("rename", {"from": "expr", "to": "str"}, "str"),
    ("extract", {"name": "int", "expr": n("expr")}, "int"),
    ("chain", {"lhs": "program", "name": "str"}, "str"),
    ("define", {"name": "int", "rhs": t("x")}, "int"),
    ("define", {"name": "x", "rhs": n("str")}, "str"),
    ("insert-rule", {"lhs": "str", "pos": 0, "rhs": n("expr")}, "str"),
    ("insert-rule", {"lhs": "expr", "pos": 0, "rhs": seq(n("expr"), n("int"))}, "int"),
    ("set-node", {"lhs": "program", "pos": 0, "path": [], "expr": n("str")}, "str"),
    ("set-node", {"lhs": "program", "pos": 0, "path": [0],
                  "expr": seq(n("int"), n("str"))}, "int"),
])
def test_a_step_may_not_create_a_reserved_value_name(fl_master, op, args, name):
    with pytest.raises(ScriptError,
                       match=f"{op}: '{name}' is the reserved name of a built-in value"):
        apply_script(fl_master, [TransformStep(op, args)])


def test_an_unknown_argument_is_refused(fl_master):
    step = TransformStep("extract", {"name": "f", "expr": n("expr"), "scop": "program"})
    with pytest.raises(ScriptError, match="extract: unknown argument 'scop'"):
        apply_script(fl_master, [step])
    with pytest.raises(TransformError, match="rename: unknown argument 'too'"):
        bidirectionalize(TransformStep("rename", {"from": "a", "to": "b", "too": "c"}))


def test_readme_documents_every_registry_operator():
    from pathlib import Path
    from gramconv.transform import _OPS
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Transformation scripts")[1].split("\n### ")[0]
    rows = [line.split("|")[1].strip().strip("`") for line in section.splitlines()
            if line.startswith("| `")]
    assert rows == list(_OPS)


def test_null_recorded_operand_blocks_inversion():
    with pytest.raises(TransformError, match="'rhs'"):
        bidirectionalize(TransformStep("remove-rule", {"lhs": "a", "pos": 0, "rhs": None}))
    pair = bidirectionalize(TransformStep("set-label", {"lhs": "a", "pos": 0, "label": "x",
                                                        "previous": None}))
    assert pair.backward == TransformStep("set-label", {"lhs": "a", "pos": 0, "label": None,
                                                        "previous": "x"})
