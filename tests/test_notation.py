import random

import pytest

from gramconv.grammar import Sequence, SepListPlus, SepListStar, subterms
from gramconv.mutate import mutate
from gramconv.notation import (
    NotationError,
    RoleChange,
    coupled_mutation,
    eliminate_metasymbol,
    format_spec,
    introduce_metasymbol,
    parse_spec,
    rename_metasymbol,
    spec,
)

from gen import corpus


def test_parse_minimal_spec():
    parsed = parse_spec("defining: ::=\nterminator: ;\ndefinition-separator: |\n")
    assert parsed.get("defining") == "::="
    assert parsed.get("terminator") == ";"
    assert parsed.get("definition-separator") == "|"


def test_parse_spec_with_comments_and_quoting():
    parsed = parse_spec('# a comment\ndefining: ":"\n\nline-comment-start: "#"\n')
    assert parsed.get("defining") == ":"
    assert parsed.get("line-comment-start") == "#"


def test_duplicate_lexeme_conflict_names_both_roles():
    with pytest.raises(NotationError) as err:
        parse_spec("defining: ::=\nterminator: ::=\n")
    assert "defining" in str(err.value) and "terminator" in str(err.value)


def test_symmetric_quotes_are_not_a_conflict():
    parsed = parse_spec('defining: =\nterminal-start-quote: "\nterminal-end-quote: "\n')
    assert parsed.get("terminal-start-quote") == '"'


def test_missing_defining_is_an_error():
    with pytest.raises(NotationError):
        parse_spec("terminator: ;\n")


def test_unpaired_bracket_role_is_an_error():
    with pytest.raises(NotationError):
        parse_spec("defining: =\ngroup-start: (\n")


def test_unknown_role_is_an_error():
    with pytest.raises(NotationError):
        parse_spec("defining: =\nfancy-brackets: <<\n")


def test_defining_only_spec_is_valid():
    parsed = parse_spec("defining: :\n")
    assert not parsed.has("terminator")


def test_format_parse_roundtrip():
    original = parse_spec("defining: ::=\nterminator: ;\nstar-postfix: *\n")
    assert parse_spec(format_spec(original)) == original
    # lexemes that a bare line would not give back: wrapping quotes, blanks
    # at either end, a leading comment mark
    for lexeme in ('"x"', '""', ' a', '#x'):
        quoted = spec({"defining": "=", "terminal-start-quote": lexeme,
                       "terminal-end-quote": lexeme})
        assert parse_spec(format_spec(quoted)) == quoted, lexeme


def test_rename_metasymbol():
    base = spec({"defining": ":"})
    renamed = rename_metasymbol(base, "defining", ":", "::=")
    assert renamed.get("defining") == "::="
    assert rename_metasymbol(renamed, "defining", "::=", ":") == base


def test_rename_metasymbol_identity_and_errors():
    base = spec({"defining": ":"})
    assert rename_metasymbol(base, "defining", ":", ":") == base
    with pytest.raises(NotationError):
        rename_metasymbol(base, "terminator", ";", ",")
    with pytest.raises(NotationError):
        rename_metasymbol(base, "defining", "=", "::=")
    conflicted = spec({"defining": ":", "terminator": ";"})
    with pytest.raises(NotationError):
        rename_metasymbol(conflicted, "terminator", ";", ":")


def test_introduce_then_eliminate_is_identity():
    base = spec({"defining": "::="})
    extended = introduce_metasymbol(base, "terminator", ";")
    assert extended.get("terminator") == ";"
    assert eliminate_metasymbol(extended, "terminator", ";") == base


def test_introduce_on_present_role_fails():
    base = spec({"defining": "::="})
    with pytest.raises(NotationError):
        introduce_metasymbol(base, "defining", "=")


def test_eliminate_checks_current_value():
    base = spec({"defining": "::=", "terminator": ";"})
    with pytest.raises(NotationError):
        eliminate_metasymbol(base, "terminator", ".")


def test_rename_self_inverse_property():
    rng = random.Random(3)
    lexemes = ["::=", ":", "=", "->", ";", "|", "/"]
    for _ in range(100):
        v1, v2 = rng.sample(lexemes, 2)
        base = spec({"defining": v1})
        there = rename_metasymbol(base, "defining", v1, v2)
        assert rename_metasymbol(there, "defining", v2, v1) == base


def test_coupled_mutation_for_group_retirement():
    mutation = coupled_mutation(RoleChange("eliminate", "group-start"))
    assert mutation is not None and mutation.kind == "fold-groups"


def test_coupled_mutation_for_seplist_retirement():
    mutation = coupled_mutation(RoleChange("eliminate", "seplist-plus"))
    assert mutation is not None and mutation.kind == "encode-seplists"


def test_coupled_mutation_identity_for_renames():
    assert coupled_mutation(RoleChange("rename", "defining")) is None
    assert coupled_mutation(RoleChange("eliminate", "terminator")) is None
    assert coupled_mutation(RoleChange("introduce", "group-start")) is None


def test_coupled_mutation_retires_the_construct():
    # after the coupled mutation, no grammar needs the retired construct
    for g in corpus(31, 40):
        folded = mutate(g, coupled_mutation(RoleChange("eliminate", "seplist-star"))).grammar
        census = [sub for prod in folded.productions for sub in subterms(prod.rhs)
                  if isinstance(sub, (SepListStar, SepListPlus))]
        assert census == []
        grouped = mutate(g, coupled_mutation(RoleChange("eliminate", "group-end"))).grammar
        from gramconv.grammar import Choice, Optional, Plus, Star
        for prod in grouped.productions:
            for sub in subterms(prod.rhs):
                if isinstance(sub, (Star, Plus, Optional)):
                    assert not isinstance(sub.body, (Sequence, Choice))
                if isinstance(sub, Sequence):
                    assert not any(isinstance(part, Choice) for part in sub.parts)
