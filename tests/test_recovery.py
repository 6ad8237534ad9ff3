import random
from functools import partial

import pytest

from gramconv.grammar import (
    EPSILON,
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
from gramconv.mutate import Mutation, anf_check, mutate
from gramconv.notation import ROLES, NotationError, parse_spec, spec
from gramconv.recovery import (
    RecoveryError,
    UnparseError,
    _parse_rhs,
    _Token,
    _tokenize,
    recover,
    unparse,
)
from gramconv.transform import rename_nonterminal

import oracles
from gen import random_expressible

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
    # structural defects do
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
        text = f"{rng.choice(words)} ::= {' '.join(pieces)} ;"
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
            written = {token.role or token.kind for token in _tokenize(text, notation)}
            if "terminal" in written:
                written |= {"terminal-start-quote", "terminal-end-quote"}
            assert written.issuperset(missing), (missing, text)
        assert recover(text, notation).grammar == g, (notation, text)
    assert min(outcomes.values()) > 50, outcomes


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


def _token_stream(tokenizer, text, notation):
    try:
        return [tuple(token) for token in tokenizer(text, notation)]
    except RecoveryError as exc:
        return ("error", exc.line, str(exc))


def test_tokenizer_matches_the_character_loop_on_random_notations():
    rng = random.Random(97)
    for _ in range(400):
        notation = _random_notation(rng)
        for _ in range(6):
            text = _random_text(rng, notation)
            assert _token_stream(_tokenize, text, notation) == \
                _token_stream(oracles.tokenize, text, notation), (notation, text)


def test_tokenizer_matches_the_character_loop_on_fuzzed_texts(data_dir):
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
            assert _token_stream(_tokenize, text, notation) == \
                _token_stream(oracles.tokenize, text, notation)
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
                assert _token_stream(_tokenize, fuzzed, notation) == \
                    _token_stream(oracles.tokenize, fuzzed, notation), fuzzed


# the roles that combine operands in a rule body; the other roles are drawn
# rarely, since a body holding one does not parse
_OPERATORS = ["definition-separator", "concatenation", "group-start", "group-end",
              "option-start", "option-end", "star-postfix", "plus-postfix",
              "option-postfix", "seplist-star", "seplist-plus"]


def _random_rhs(rng: random.Random) -> tuple[list[_Token], int]:
    tokens = []
    line = rng.randint(1, 3)
    for _ in range(rng.randint(0, 14)):
        line += rng.random() < 0.1
        roll = rng.random()
        if roll < 0.4:
            tokens.append(_Token(line, "name", rng.choice(["a", "b", "str", "int"])))
        elif roll < 0.47:
            tokens.append(_Token(line, "terminal", rng.choice(["x", "x", "x", ""])))
        elif roll < 0.5:
            tokens += [_Token(line, "lex", "<", "nonterminal-start"),
                       _Token(line, "name", rng.choice(["c", "int"])),
                       _Token(line, "lex", ">", "nonterminal-end")]
        else:
            role = rng.choice(_OPERATORS if roll < 0.96 else ROLES)
            tokens.append(_Token(line, "lex", role, role))
    return tokens, line + rng.randint(0, 1)


def _parsed(parse, tokens, end_line):
    try:
        return parse(tokens, end_line)
    except RecoveryError as exc:
        return (exc.line, exc.reason)


def test_rhs_parser_matches_the_recursive_descent_on_random_token_streams():
    rng = random.Random(99)
    outcomes = set()
    for _ in range(100_000):
        tokens, end_line = _random_rhs(rng)
        got = _parsed(partial(_parse_rhs, leaves={}), tokens, end_line)
        assert got == _parsed(oracles.parse_rhs, tokens, end_line), (tokens, end_line)
        outcomes.add(got[1].split(" '")[0] if isinstance(got, tuple) else "parsed")
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
