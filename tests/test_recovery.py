import random
import sys
from functools import partial

import pytest

from gramconv.grammar import (
    EPSILON,
    VALUE_NAMES,
    Grammar,
    Nonterminal,
    Terminal,
    children,
    choice,
    n,
    opt,
    p,
    plus,
    sepplus,
    seq,
    star,
    subterms,
    t,
    used_names,
    vocabulary,
)
from gramconv.interchange import deserialize
from gramconv.mutate import Mutation, anf_check, mutate
from gramconv.notation import ROLES, NotationError, parse_spec, spec
from gramconv.recovery import RecoveryError, UnparseError, recover, unparse
from gramconv.transform import rename_nonterminal

import oracles
from gen import random_expressible, random_grammar

BASIC = spec({"defining": "::=", "terminator": ";", "definition-separator": "|",
              "plus-postfix": "+", "star-postfix": "*", "option-postfix": "?",
              "group-start": "(", "group-end": ")"})


def reference_spec(data_dir):
    return parse_spec((data_dir / "reference.edd").read_text(encoding="utf-8"))


def test_recover_single_rule():
    report = recover("program ::= function+ ;", BASIC)
    assert report.grammar == Grammar(("program",), (p("program", plus(n("function"))),))


def test_recover_empty_input_warns():
    report = recover("", BASIC)
    assert report.grammar == Grammar((), ())
    assert report.warnings


def test_recover_grouping_and_precedence():
    report = recover("a ::= ( b | c ) d ;", BASIC)
    assert report.grammar.productions[0].rhs == seq(choice(n("b"), n("c")), n("d"))


def test_precedence_postfix_over_concat_over_alternation():
    report = recover("a ::= b c+ | d ;", BASIC)
    assert report.grammar.productions[0].rhs == choice(seq(n("b"), plus(n("c"))), n("d"))


def test_reserved_value_names():
    report = recover("a ::= str int b ;", BASIC)
    rhs = report.grammar.productions[0].rhs
    from gramconv.grammar import VALUE_INT, VALUE_STR
    assert rhs == seq(VALUE_STR, VALUE_INT, n("b"))


def test_recover_fl_master(fl_master, data_dir):
    text = (data_dir / "fl_master.ebnf").read_text(encoding="utf-8")
    edd = parse_spec((data_dir / "factorial.edd").read_text(encoding="utf-8"))
    report = recover(text, edd)
    assert report.grammar == fl_master
    assert {prod.lhs for prod in report.grammar.productions} == \
        vocabulary(report.grammar).defined


def test_defined_names_equal_lhs_set_in_text(data_dir):
    text = "a ::= b ; b ::= c d ; b ::= e ;"
    report = recover(text, BASIC)
    assert vocabulary(report.grammar).defined == {"a", "b"}


def test_vertical_redefinition_heuristic():
    report = recover("a ::= b ; a ::= c ;", BASIC)
    assert len(report.grammar.productions) == 2
    assert any(e.name == "vertical-redefinition" for e in report.heuristics)


def test_undefined_nonterminal_heuristic_keeps_name():
    report = recover("a ::= mystery ;", BASIC)
    assert report.grammar.productions[0].rhs == n("mystery")
    assert any(e.name == "undefined-nonterminal" for e in report.heuristics)
    assert any("mystery" in message for _, message in report.warnings)


def test_stray_terminator_heuristic():
    report = recover("; a ::= b ;; ", BASIC)
    assert len(report.grammar.productions) == 1
    assert any(e.name == "stray-terminator" for e in report.heuristics)


def test_unbalanced_group_reports_line():
    with pytest.raises(RecoveryError) as err:
        recover("a ::= b ;\nq ::= ( c ;", BASIC)
    assert err.value.line == 2


def test_dangling_defining_symbol():
    with pytest.raises(RecoveryError):
        recover("::= b ;", BASIC)


def test_newline_terminated_rules_without_terminator():
    colon = spec({"defining": ":"})
    report = recover("a : b c\nd : e\n", colon)
    assert [prod.lhs for prod in report.grammar.productions] == ["a", "d"]
    assert report.grammar.productions[0].rhs == seq(n("b"), n("c"))


def test_rule_may_span_lines_without_terminator():
    colon = spec({"defining": ":"})
    report = recover("a : b\n  c d\ne : f\n", colon)
    assert report.grammar.productions[0].rhs == seq(n("b"), n("c"), n("d"))
    assert len(report.grammar.productions) == 2


def test_comments_and_nonterminal_brackets():
    bnf = spec({"defining": "::=", "nonterminal-start": "<", "nonterminal-end": ">",
                "line-comment-start": "//"})
    report = recover("// intro\n<a> ::= <b> <c>\n", bnf)
    assert report.grammar.productions[0] == p("a", seq(n("b"), n("c")))


def test_concatenation_lexeme_is_honored():
    iso = spec({"defining": "=", "terminator": ";", "concatenation": ","})
    report = recover("a = b , c ;", iso)
    assert report.grammar.productions[0].rhs == seq(n("b"), n("c"))


def test_recovery_total_on_unknown_words():
    text = "a ::= frobnicate quux99 zz-top ;"
    report = recover(text, BASIC)
    assert len(report.grammar.productions) == 1


def test_recovery_total_on_wordy_well_bracketed_fuzz():
    # arbitrary word soup with balanced brackets never aborts; only
    # structural defects do, and a reserved value name as a left-hand side
    rng = random.Random(71)
    words = ["alpha", "beta9", "x-y", "str", "int", "zz_1"]
    for _ in range(120):
        pieces = []
        for _ in range(rng.randint(1, 12)):
            roll = rng.random()
            if roll < 0.7:
                pieces.append(rng.choice(words))
            elif roll < 0.8:
                pieces.append(rng.choice(words) + rng.choice("+*?"))
            elif roll < 0.9:
                pieces.append("( " + " ".join(rng.choices(words, k=2)) + " )")
            else:
                pieces.append("|")
        lhs = rng.choice(words)
        text = f"{lhs} ::= {' '.join(pieces)} ;"
        if lhs in VALUE_NAMES:
            with pytest.raises(RecoveryError, match="^line 1: '(str|int)' is the reserved name"):
                recover(text, BASIC)
            continue
        report = recover(text, BASIC)
        assert report.grammar.productions


def test_recovery_roots_are_tops():
    report = recover("a ::= b ; b ::= c ; d ::= b ;", BASIC)
    assert report.grammar.roots == ("a", "d")


def test_unparse_fl_master_roundtrips(fl_master, data_dir):
    edd = parse_spec((data_dir / "factorial.edd").read_text(encoding="utf-8"))
    text = unparse(fl_master, edd)
    assert len(text.strip().splitlines()) == 10
    assert recover(text, edd).grammar == fl_master


def test_unparse_empty_grammar():
    assert unparse(Grammar((), ()), BASIC) == ""


def test_unparse_missing_role_listed():
    g = Grammar((), (p("a", sepplus(n("b"), t(","))),))
    with pytest.raises(UnparseError) as err:
        unparse(g, BASIC)
    assert "seplist-plus" in err.value.missing
    assert "terminal-start-quote" in err.value.missing


def test_unparse_inserts_grouping():
    g = Grammar(("a",), (p("a", star(seq(n("b"), n("c")))),))
    text = unparse(g, BASIC)
    assert "(" in text
    assert recover(text, BASIC).grammar == g


@pytest.mark.parametrize("dialect, expected", [
    ("reference.edd", 'a ::=  | b ( | "{x}" | )* ( "{x}" | )? ;\n'),
    ("pgen.edd", "a :  | b ( | '{x}' | )* [ '{x}' |  ]\n"),
], ids=["reference", "pgen"])
@pytest.mark.parametrize("x", ["x", "x  y", " x   "])
def test_unparse_drops_only_the_spaces_of_empty_pieces(data_dir, dialect, expected, x):
    # inside a group an epsilon alternative leaves no space of its own; at
    # rule level, and in a bracket option outside a group, its layout stays
    # as first written; a terminal's spaces are its own and always stay
    g = Grammar(("a",), (p("a", choice(EPSILON, seq(
        n("b"), star(choice(EPSILON, t(x), EPSILON)), opt(choice(t(x), EPSILON))))),))
    notation = parse_spec((data_dir / dialect).read_text(encoding="utf-8"))
    text = unparse(g, notation)
    assert text == expected.format(x=x)
    assert recover(text, notation).grammar == g


def test_unparse_keeps_the_spaces_inside_a_grouped_terminal(data_dir):
    g = Grammar(("a",), (p("a", star(seq(t("x  y"), n("b")))),))
    text = unparse(g, reference_spec(data_dir))
    assert text == 'a ::= ( "x  y" b )* ;\n'
    assert recover(text, reference_spec(data_dir)).grammar == g


def test_unparse_option_postfix_and_brackets(data_dir):
    g = Grammar(("a",), (p("a", seq(n("b"), opt(n("c")))),))
    ref = reference_spec(data_dir)
    assert recover(unparse(g, ref), ref).grammar == g
    brackets = spec({"defining": "::=", "terminator": ";",
                     "option-start": "[", "option-end": "]"})
    text = unparse(g, brackets)
    assert "[" in text
    assert recover(text, brackets).grammar == g
    # an option over a sequence needs no group brackets
    grouped = recover("a ::= [ b c ] ;", brackets).grammar
    assert grouped == Grammar(("a",), (p("a", opt(seq(n("b"), n("c")))),))
    assert unparse(grouped, brackets) == "a ::= [ b c ] ;\n"


def test_roundtrip_random_sample(data_dir):
    ref = reference_spec(data_dir)
    rng = random.Random(41)
    for _ in range(100):
        g = random_expressible(rng)
        assert recover(unparse(g, ref), ref).grammar == g


def test_roundtrip_or_the_missing_roles_over_reduced_dialects(data_dir):
    # paired roles are dropped together; an UnparseError must list exactly
    # what the dialect lacks: with those roles added the round trip holds,
    # and the text written then holds each of them
    ref = reference_spec(data_dir).as_dict()
    units = [("terminator",), ("definition-separator",), ("group-start", "group-end"),
             ("option-start", "option-end"), ("star-postfix",), ("plus-postfix",),
             ("option-postfix",), ("terminal-start-quote", "terminal-end-quote"),
             ("seplist-star",), ("seplist-plus",), ("line-comment-start",)]

    def dialect(roles):
        return spec({role: ref[role] for role in ["defining"] + roles})

    rng = random.Random(43)
    outcomes = {"round trip": 0, "completed": 0}
    for _ in range(500):
        g = random_expressible(rng)
        kept = [role for unit in units if rng.random() < 0.5 for role in unit]
        notation = dialect(kept)
        try:
            text = unparse(g, notation)
            outcomes["round trip"] += 1
        except UnparseError as err:
            missing = list(err.missing)
            notation = dialect(kept + missing)
            text = unparse(g, notation)
            outcomes["completed"] += 1
            written = {role or kind for _, kind, _, role in oracles.tokenize(text, notation)}
            if "terminal" in written:
                written |= {"terminal-start-quote", "terminal-end-quote"}
            assert written.issuperset(missing), (missing, text)
        assert recover(text, notation).grammar == g, (notation, text)
    assert min(outcomes.values()) > 50, outcomes


def _unparsed(write, g: Grammar, notation):
    """What write(g, notation) gives: the text, or the roles the error lists."""
    try:
        return write(g, notation)
    except UnparseError as err:
        return UnparseError, str(err), err.missing


def test_unparse_writes_what_the_generator_renderer_wrote(data_dir):
    # every committed grammar, and random ones with and without the
    # constructs no dialect writes, in the three committed dialects and in
    # dialects that lack some roles
    dialects = [parse_spec((data_dir / name).read_text(encoding="utf-8"))
                for name in ("factorial.edd", "reference.edd", "pgen.edd")]
    ref = dialects[1].as_dict()
    units = [("terminator",), ("definition-separator",), ("group-start", "group-end"),
             ("option-start", "option-end"), ("star-postfix",), ("plus-postfix",),
             ("option-postfix",), ("terminal-start-quote", "terminal-end-quote"),
             ("seplist-star",), ("seplist-plus",), ("concatenation",)]
    ref["concatenation"] = ","
    rng = random.Random(47)
    for _ in range(12):
        kept = [role for unit in units if rng.random() < 0.5 for role in unit]
        dialects.append(spec({role: ref[role] for role in ["defining"] + kept}))
    grammars = [deserialize(path.read_text(encoding="utf-8"))
                for path in sorted(data_dir.glob("*.json"))
                if "productions" in path.read_text(encoding="utf-8")]
    grammars.append(recover((data_dir / "fl_master.ebnf").read_text(encoding="utf-8"),
                            dialects[0]).grammar)
    grammars += [recover_lib2to3(data_dir, version).grammar for version in LIB2TO3]
    rng = random.Random(53)
    grammars += [draw(rng) for _ in range(150) for draw in (random_grammar, random_expressible)]
    outcomes = {str: 0, tuple: 0}
    for g in grammars:
        for notation in dialects:
            ours = _unparsed(unparse, g, notation)
            assert ours == _unparsed(oracles.unparse, g, notation)
            outcomes[type(ours)] += 1
    assert min(outcomes.values()) > 500, outcomes


def test_unparse_writes_400_levels_that_recover_reads_back(data_dir):
    # two frames a level: the star's render and the sequence's
    assert sys.getrecursionlimit() == 1000
    ref = reference_spec(data_dir)
    text = "a ::= " + "( c " * 400 + "b" + " )*" * 400 + " ;\n"
    g = recover(text, ref).grammar
    written = unparse(g, ref)
    assert written == text
    again = recover(written, ref).grammar
    assert again.roots == g.roots == ("a",)
    assert [prod.lhs for prod in again.productions] == ["a"]
    assert _same_tree(again.productions[0].rhs, g.productions[0].rhs)


# version: (fixture, rules, ANF productions, names used but never defined);
# 3.9 to 3.12 share the 3.11 file, and 2.7 has no ASYNC or AWAIT tokens
LIB2TO3 = {"2.7": ("lib2to3_Grammar_2.7.txt", 91, 225, 7),
           "3.6": ("lib2to3_Grammar_3.6.txt", 94, 233, 9),
           "3.7": ("lib2to3_Grammar_3.7.txt", 95, 237, 9),
           "3.8": ("lib2to3_Grammar_3.8.txt", 95, 245, 9),
           "3.11": ("lib2to3_Grammar.txt", 95, 245, 9)}


def recover_lib2to3(data_dir, version):
    pgen = parse_spec((data_dir / "pgen.edd").read_text(encoding="utf-8"))
    return recover((data_dir / LIB2TO3[version][0]).read_text(encoding="utf-8"), pgen)


@pytest.mark.parametrize("version", LIB2TO3)
def test_lib2to3_grammar_recovers_roundtrips_and_normalizes(data_dir, version):
    _, rules, anf_rules, undefined = LIB2TO3[version]
    pgen = parse_spec((data_dir / "pgen.edd").read_text(encoding="utf-8"))
    report = recover_lib2to3(data_dir, version)
    g = report.grammar
    assert len(g.productions) == rules
    assert len(report.warnings) == undefined
    assert all("is used but never defined" in message for _, message in report.warnings)
    # pgen writes options only in brackets, and never an option postfix
    text = unparse(g, pgen)
    again = recover(text, pgen).grammar
    assert again == g
    assert unparse(again, pgen) == text
    anf = mutate(g, Mutation("normalize-anf")).grammar
    assert anf_check(anf) == []
    assert len(anf.productions) == anf_rules


def _shares_its_leaves(g: Grammar) -> bool:
    return all(len(ids) == 1 for ids in oracles.leaf_objects(g).values())


def _leaf_ids(g: Grammar) -> set[int]:
    return set().union(*oracles.leaf_objects(g).values())


def test_a_recovered_grammar_holds_one_leaf_per_name_and_text(data_dir):
    g = recover_lib2to3(data_dir, "3.11").grammar
    occurrences = sum(isinstance(sub, (Nonterminal, Terminal))
                      for prod in g.productions for sub in subterms(prod.rhs))
    assert occurrences > 2 * len(oracles.leaf_objects(g))
    assert _shares_its_leaves(g)
    # a second call builds its own leaves
    again = recover_lib2to3(data_dir, "3.11").grammar
    assert again == g and _shares_its_leaves(again)
    assert not _leaf_ids(g) & _leaf_ids(again)


@pytest.mark.parametrize("mutation", [Mutation("disciplined-rename", {"convention": "UPPER"}),
                                      Mutation("disciplined-rename", {"convention": "lower"})])
def test_renaming_keeps_one_leaf_per_name(data_dir, mutation):
    g = recover_lib2to3(data_dir, "3.11").grammar
    renamed = mutate(g, mutation).grammar
    assert renamed != g and _shares_its_leaves(renamed)
    once = rename_nonterminal(g, "test", "TEST")
    assert once.users_of("TEST") and _shares_its_leaves(once)


def test_lib2to3_versions_differ_in_two_rules(data_dir):
    # 3.9 moved return_stmt and yield_arg from testlist to testlist_star_expr
    old = recover_lib2to3(data_dir, "3.8").grammar
    new = recover_lib2to3(data_dir, "3.11").grammar
    assert old.roots == new.roots
    assert list(old.blocks) == list(new.blocks)
    changed = [name for name in old.blocks if old.rules_of(name) != new.rules_of(name)]
    assert changed == ["return_stmt", "yield_arg"]
    assert "testlist_star_expr" in used_names(new.rules_of("return_stmt")[0].rhs)
    assert "testlist_star_expr" not in used_names(old.rules_of("return_stmt")[0].rhs)


@pytest.mark.parametrize("old_version, new_version, changed, added", [
    ("2.7", "3.6", ["decorated", "typedargslist", "varargslist", "expr_stmt",
                    "compound_stmt", "power", "comp_for"],
     ["async_funcdef", "annassign", "async_stmt"]),
    ("3.6", "3.7", ["if_stmt", "while_stmt", "listmaker", "testlist_gexp", "argument"],
     ["namedexpr_test"]),
    ("3.7", "3.8", ["typedargslist", "varargslist"], []),
    ("3.8", "3.11", ["return_stmt", "yield_arg"], []),
])
def test_lib2to3_ladder_rungs_differ_in_the_listed_rules(data_dir, old_version, new_version,
                                                         changed, added):
    # each rung keeps the roots and every rule name, changes the rules listed
    # (in the older version's order) and adds the new ones (in the newer's)
    old = recover_lib2to3(data_dir, old_version).grammar
    new = recover_lib2to3(data_dir, new_version).grammar
    assert old.roots == new.roots
    assert [name for name in new.blocks if name not in old.blocks] == added
    assert set(old.blocks) <= set(new.blocks)
    assert [name for name in old.blocks if old.rules_of(name) != new.rules_of(name)] == changed


def test_rule_starts_split_alike_with_and_without_brackets():
    # without a terminator a rule ends where a later line opens one, by
    # `name defining` or `<name> defining`; a line that opens none continues
    plain = spec({"defining": ":", "definition-separator": "|"})
    bracketed = spec({"defining": "::=", "definition-separator": "|",
                      "nonterminal-start": "<", "nonterminal-end": ">"})
    text = "a : b\n  c\n| d\nb : e f\n  g\nc :\n"
    expected = Grammar(("a",), (p("a", choice(seq(n("b"), n("c")), n("d"))),
                                p("b", seq(n("e"), n("f"), n("g"))), p("c", seq())))
    assert recover(text, plain).grammar == expected
    angled = "<a> ::= <b>\n  <c>\n| <d>\n<b> ::= <e> <f>\n  <g>\n<c> ::=\n"
    assert recover(angled, bracketed).grammar == expected
    # a bracketed name that is not followed by the defining symbol continues
    report = recover("<a> ::= <b>\n<c> <d>\n<e> ::= <f>\n", bracketed)
    assert [prod.lhs for prod in report.grammar.productions] == ["a", "e"]
    assert report.grammar.productions[0].rhs == seq(n("b"), n("c"), n("d"))


def _error(text, notation) -> tuple[int, str]:
    with pytest.raises(RecoveryError) as err:
        recover(text, notation)
    return err.value.line, err.value.reason


BRACKETED = spec({"defining": "::=", "terminator": ";", "definition-separator": "|",
                  "nonterminal-start": "<", "nonterminal-end": ">"})
COLON = spec({"defining": ":", "definition-separator": "|"})


@pytest.mark.parametrize("text, notation, line, name", [
    ("str ::= a ;", BASIC, 1, "str"),
    ("<int> ::= <a> ;", BRACKETED, 1, "int"),
    ("a ::= b ;\n\nint ::= a ;", BASIC, 3, "int"),
    ("<a> ::= <b> ;\n<\nstr\n> ::= <a> ;", BRACKETED, 2, "str"),
    ("a : b\nstr : a\n", COLON, 2, "str"),
], ids=["name", "bracketed", "later-rule", "bracketed-over-lines", "no-terminator"])
def test_a_reserved_value_name_is_no_left_hand_side(text, notation, line, name):
    # the interchange reader refuses such a rule in the same words
    assert _error(text, notation) == (line, f"{name!r} is the reserved name of a built-in value")


def test_a_reserved_left_hand_side_is_a_parse_error():
    # a scanning error anywhere wins over it, and so does a parse error before it
    assert _error("str ::= a ;\nb ::= $ ;", BASIC) == (2, "unexpected character '$'")
    assert _error("a ::= ) ;\nstr ::= b ;", BASIC) == (1, "unbalanced ')'")
    assert _error("str ::= ) ;", BASIC) == (1, "'str' is the reserved name of a built-in value")
    # in a body a reserved name is the value
    assert recover("a ::= str <int> ;", BRACKETED).grammar.productions[0].rhs == \
        seq(VALUE_NAMES["str"], VALUE_NAMES["int"])


def test_a_scanning_error_on_a_later_line_wins_over_an_earlier_parse_error(data_dir):
    ref = reference_spec(data_dir)
    assert _error("a ::= ) ;\nb ::= $ ;", BASIC) == (2, "unexpected character '$'")
    assert _error('a ::= ) ;\nb ::= "x ;', ref) == (2, "unterminated terminal quote")
    assert _error('a ::= ) ;\nb ::= "x\n" ;', ref) == (2, "terminal quote spans lines")
    assert _error("a : b :\nc : d\n$\n", COLON) == (3, "unexpected character '$'")


def test_warning_and_event_lines():
    # a missing terminator is warned at the last line of the text; there a
    # newline inside a lexeme counts, but not in the lines of tokens
    report = recover("a ::= b ;\nc ::= d\n\n", BASIC)
    assert report.warnings[0] == (4, "missing terminator before end of input")
    broken = spec({"defining": "=\n", "terminator": ";"})
    report = recover("a =\nb ;\nc =\nd", broken)
    assert report.warnings == [(4, "missing terminator before end of input"),
                               (1, "nonterminal 'b' is used but never defined"),
                               (2, "nonterminal 'd' is used but never defined")]
    assert _error("a =\nb ;\nc =\n$", broken) == (2, "unexpected character '$'")
    # stray terminators are listed first, then redefinitions, each at its line
    for text, stray, again in [("a ::= b ;\n;\na ::= c ;\n", 2, 3),
                               ("a ::= b ;\na ::= c ;\n;", 3, 2)]:
        report = recover(text, BASIC)
        assert [(event.line, event.name) for event in report.heuristics[:2]] == \
            [(stray, "stray-terminator"), (again, "vertical-redefinition")]
        assert report.warnings[0] == (stray, "stray terminator skipped")


def test_a_line_that_opens_no_rule_goes_on_with_the_body():
    # without a terminator, a line that opens with a name or a bracketed name
    # that the defining symbol does not follow continues the rule; a head
    # may span lines
    bracketed = spec({"defining": "::=", "definition-separator": "|", "star-postfix": "*",
                      "nonterminal-start": "<", "nonterminal-end": ">"})
    report = recover("<a> ::= <b>\n<c>* | <d>\n<\ne\n> ::= <a>\n<g>\n", bracketed)
    assert report.grammar == Grammar(("e",), (p("a", choice(seq(n("b"), star(n("c"))), n("d"))),
                                              p("e", seq(n("a"), n("g")))))
    assert [line for line, _ in report.warnings] == [1, 2, 2, 6]
    # a name that opens a later rule is no use of it
    report = recover("a : b\nb : a c\nc :\n", COLON)
    assert report.grammar.roots == () and report.warnings == []
    # a head ends the rule before it, even one that an open bracket or infix
    # leaves unfinished, which then ends on its own last line; a redefinition
    # is noted on the line its head opens
    bracketed = spec({"defining": ":", "nonterminal-start": "<", "nonterminal-end": ">",
                      "seplist-plus": "#+"})
    assert _error("a : <\nb : c\n", bracketed) == (1, "expected a name after nonterminal bracket")
    assert _error("a : b #+\n\nc : d\n", bracketed) == (1, "expected an expression")
    report = recover("<a> : <b>\n<\na\n> : <c>\n", bracketed)
    assert [(event.line, event.name) for event in report.heuristics[:1]] == \
        [(2, "vertical-redefinition")]
    assert recover("a : <\nb > c\n", bracketed).grammar == \
        Grammar(("a",), (p("a", seq(n("b"), n("c"))),))


# lexemes that look like names, that prefix one another, that the two quote
# roles may share, and that hold whitespace
_LEXEMES = ["::=", ":", "=", ":=", ";", ".", "|", "||", "(", ")", "[", "]", "{",
            "}", "*", "+", "?", "#*", "#+", "#", "//", "--", "-", "is", "end",
            "e", "en", "<", ">", "<<", '"', "'", "`", ",", "@", "é", "\u2192",
            " |", "a b", "=\n"]
_SPACES = [" ", "  ", "\t", "\n", "\r\n", "\u00a0", "\u2028", "\u3000", "\x0b",
           "\x1c", ""]
_STRAYS = ["$", "%", "~", "\\", "😀", "ß", "\x00", "\x85"]


def _random_notation(rng: random.Random):
    while True:
        mapping = {"defining": rng.choice(_LEXEMES)}
        for role in rng.sample(ROLES, rng.randint(0, len(ROLES))):
            mapping.setdefault(role, rng.choice(_LEXEMES))
        if "terminal-start-quote" in mapping and rng.random() < 0.6:
            mapping["terminal-end-quote"] = mapping["terminal-start-quote"]
        try:
            return spec(mapping)
        except NotationError:
            continue


def _random_text(rng: random.Random, notation) -> str:
    roles = notation.as_dict()
    lexemes = list(roles.values())
    pieces = []
    for _ in range(rng.randint(0, 40)):
        roll = rng.random()
        if roll < 0.3:
            pieces.append(rng.choice(lexemes))
        elif roll < 0.6:
            pieces.append(rng.choice(["a", "b9", "x-y", "is", "end", "ends", "e_1",
                                      "-", "str", "int"]))
        elif roll < 0.9:
            pieces.append(rng.choice(_SPACES))
        elif roll < 0.98 and "terminal-start-quote" in roles:
            pieces.append(roles["terminal-start-quote"] + rng.choice(["x", "a b", "", ";"])
                          + roles["terminal-end-quote"])
        elif roll > 0.99:
            pieces.append(rng.choice(_STRAYS))
    return "".join(pieces)


def _recovered(recover, text, notation):
    """What recovery gives: ("parsed", grammar, warnings, heuristics), or
    ("error", line, reason)."""
    try:
        report = recover(text, notation)
    except RecoveryError as exc:
        return ("error", exc.line, exc.reason)
    return ("parsed", report.grammar, report.warnings, report.heuristics)


@pytest.fixture
def reference(monkeypatch):
    """The recovery that the one-pass loop replaced, which also refuses a
    reserved value name as a left-hand side, at its rule's line, as a parse
    error: the one difference `recover` may show against it."""
    take_lhs = oracles._take_lhs

    def refusing(chunk):
        lhs, rest = take_lhs(chunk)
        if lhs in VALUE_NAMES:
            raise RecoveryError(chunk[0].line,
                                f"{lhs!r} is the reserved name of a built-in value")
        return lhs, rest

    monkeypatch.setattr(oracles, "_take_lhs", refusing)
    return partial(_recovered, oracles.recover)


def _outcome(recovered) -> str:
    return recovered[0] if recovered[0] == "parsed" else recovered[2].split(" '")[0]


def test_one_pass_matches_the_token_list_recovery_on_random_notations(reference):
    rng = random.Random(97)
    outcomes = set()
    for _ in range(400):
        notation = _random_notation(rng)
        for _ in range(6):
            text = _random_text(rng, notation)
            got = _recovered(recover, text, notation)
            assert got == reference(text, notation), (notation, text)
            outcomes.add(_outcome(got))
    assert {"parsed", "unexpected character", "is the reserved name of a built-in value",
            "unterminated terminal quote", "terminal quote spans lines"} <= \
        {outcome.removeprefix("'str' ").removeprefix("'int' ") for outcome in outcomes}


def test_one_pass_matches_the_token_list_recovery_on_fuzzed_texts(data_dir, reference):
    rng = random.Random(98)
    notations = [BASIC, reference_spec(data_dir),
                 spec({"defining": "is", "terminator": "end", "definition-separator": "|",
                       "terminal-start-quote": "'", "terminal-end-quote": "'",
                       "line-comment-start": "--"})]
    texts = [(data_dir / "fl_master.ebnf").read_text(encoding="utf-8"),
             unparse(random_expressible(random.Random(5), 12), notations[1]),
             "a is 'x' b end -- note\nc is d | 'y' end\n"]
    for text in texts:
        for notation in notations:
            assert _recovered(recover, text, notation) == reference(text, notation)
        for _ in range(150):
            chars = list(text)
            for _ in range(rng.randint(1, 4)):  # insert, delete or replace
                at = rng.randrange(len(chars) + 1)
                piece = rng.choice(_SPACES + _STRAYS + ['"', "'", "\n", "//", "#"])
                roll = rng.random()
                if roll < 0.4:
                    chars.insert(at, piece)
                elif chars and at < len(chars):
                    if roll < 0.7:
                        del chars[at]
                    else:
                        chars[at] = piece
            fuzzed = "".join(chars)
            for notation in notations:
                assert _recovered(recover, fuzzed, notation) == reference(fuzzed, notation), \
                    fuzzed


def test_one_pass_matches_the_token_list_recovery_where_lines_open_rules(reference):
    # without a terminator a rule ends where a line opens the next one's
    # head, which the body reads first; heads, names, brackets and operators
    # over random line breaks
    notation = spec({"defining": ":", "definition-separator": "|", "group-start": "(",
                     "group-end": ")", "star-postfix": "*", "seplist-plus": "#+",
                     "nonterminal-start": "<", "nonterminal-end": ">"})
    pieces = ["a :", "<b> :", "<\nstr\n> :", "a", "b", "<", ">", ":", "|", "(", ")", "*",
              "#+", "\n", "\n", "\n"]
    rng = random.Random(101)
    outcomes = set()
    for _ in range(5000):
        text = " ".join(rng.choice(pieces) for _ in range(rng.randint(0, 16)))
        got = _recovered(recover, text, notation)
        assert got == reference(text, notation), text
        outcomes.add(_outcome(got))
    assert {"parsed", "'str' is the reserved name of a built-in value", "unexpected",
            "unbalanced nonterminal brackets", "expected a name after nonterminal bracket",
            "expected defining symbol after", "expected"} <= outcomes


# the roles that combine operands in a rule body; the other roles are drawn
# rarely, since a body holding one does not parse
_OPERATORS = ["definition-separator", "concatenation", "group-start", "group-end",
              "option-start", "option-end", "star-postfix", "plus-postfix",
              "option-postfix", "seplist-star", "seplist-plus"]
# a dialect with every role.  A role drawn that would end the rule, or open a
# terminal or a comment, is written as the defining symbol, which no body
# holds either
_EVERY_ROLE = spec({"defining": "::=", "terminator": ";", "definition-separator": "|",
                    "concatenation": ",", "group-start": "(", "group-end": ")",
                    "option-start": "[", "option-end": "]", "star-postfix": "*",
                    "plus-postfix": "+", "option-postfix": "?",
                    "terminal-start-quote": '"', "terminal-end-quote": '"',
                    "nonterminal-start": "<", "nonterminal-end": ">",
                    "seplist-star": "#*", "seplist-plus": "#+",
                    "line-comment-start": "//"})
_WRITTEN = {role: _EVERY_ROLE.get(role) for role in ROLES} | {
    role: "::=" for role in ("terminator", "terminal-start-quote", "terminal-end-quote",
                             "line-comment-start")}


def _random_rule(rng: random.Random) -> str:
    """One rule `r` of `_EVERY_ROLE`, whose random body spans a few lines."""
    line = rng.randint(1, 3)
    pieces = ["\n" * (line - 1), "r ::="]
    for _ in range(rng.randint(0, 14)):
        if rng.random() < 0.1:
            line += 1
            pieces.append("\n")
        roll = rng.random()
        if roll < 0.4:
            pieces.append(rng.choice(["a", "b", "str", "int"]))
        elif roll < 0.47:
            pieces.append('"' + rng.choice(["x", "x", "x", ""]) + '"')
        elif roll < 0.5:
            pieces.append(f"< {rng.choice(['c', 'int'])} >")
        else:
            pieces.append(_WRITTEN[rng.choice(_OPERATORS if roll < 0.96 else ROLES)])
    pieces.append("\n" * rng.randint(0, 1) + ";")
    return " ".join(pieces)


def test_one_pass_matches_the_token_list_recovery_on_random_rule_bodies(reference):
    rng = random.Random(99)
    outcomes = set()
    for _ in range(100_000):
        text = _random_rule(rng)
        got = _recovered(recover, text, _EVERY_ROLE)
        assert got == reference(text, _EVERY_ROLE), text
        outcomes.add(_outcome(got))
    assert outcomes == {"parsed", "expected an expression", "empty terminal",
                        "unbalanced group brackets", "unbalanced option brackets",
                        "unbalanced nonterminal brackets",
                        "expected a name after nonterminal bracket",
                        "unexpected", "unbalanced"}


def _same_tree(left, right) -> bool:
    """Node types, child lists and leaves alike, compared on an explicit stack:
    == recurses once per level."""
    work = [(left, right)]
    while work:
        x, y = work.pop()
        kids, other = children(x), children(y)
        if type(x) is not type(y) or len(kids) != len(other) or (not kids and x != y):
            return False
        work.extend(zip(kids, other))
    return True


@pytest.mark.parametrize("depth", [3000, 10_000])
def test_deep_nesting_recovers_without_recursion(depth, data_dir):
    grouped = recover("a ::= " + "(" * depth + " b " + ")" * depth + " ;", BASIC)
    assert grouped.grammar == Grammar(("a",), (p("a", n("b")),))
    starred = recover("a ::= " + "( c " * depth + "b" + " )*" * depth + " ;", BASIC)
    assert starred.grammar.roots == ("a",)
    stars = starred.grammar.productions[0].rhs
    expected = n("b")
    for _ in range(depth):
        expected = star(seq(n("c"), expected))
    assert _same_tree(stars, expected)
    options = recover("a ::= " + "[ c " * depth + "b" + " ]" * depth + " ;",
                      reference_spec(data_dir)).grammar.productions[0].rhs
    expected = n("b")
    for _ in range(depth):
        expected = opt(seq(n("c"), expected))
    assert _same_tree(options, expected)
    assert not _same_tree(options, stars)
