import copy
import itertools
import json
import pickle
import random
import sys

import pytest

from gramconv.cli import main
from gramconv.grammar import (
    NODE_TABLE,
    Grammar,
    GrammarError,
    Nonterminal,
    Production,
    Terminal,
    children,
    n,
    p,
    rename_expr,
    sel,
    seq,
    subterms,
    t,
)
from gramconv.interchange import (
    InterchangeError,
    deserialize,
    dumps,
    expr_from_json,
    expr_to_json,
    grammar_from_json,
    grammar_to_json,
    serialize,
)
from gramconv.notation import parse_spec
from gramconv.recovery import recover

import oracles
from gen import corpus, random_expressible, random_grammar


def test_roundtrip_fl_master_golden(fl_master, data_dir):
    committed = (data_dir / "fl_master.json").read_text(encoding="utf-8")
    assert deserialize(committed) == fl_master
    assert serialize(fl_master) == committed


def test_roundtrip_jaxb_golden(jaxb_model, data_dir):
    committed = (data_dir / "jaxb_model.json").read_text(encoding="utf-8")
    assert deserialize(committed) == jaxb_model
    assert serialize(jaxb_model) == committed


def test_roundtrip_empty_grammar():
    g = Grammar((), ())
    assert deserialize(serialize(g)) == g


def test_roundtrip_random_corpus():
    for g in corpus(23, 120):
        assert deserialize(serialize(g)) == g


def test_unknown_tag_is_reported_with_path_and_tag():
    doc = '{"roots": [], "productions": [{"label": null, "lhs": "a", ' \
          '"rhs": {"tag": "wat"}}]}'
    with pytest.raises(InterchangeError) as err:
        deserialize(doc)
    assert "wat" in str(err.value)
    assert "productions[0]" in str(err.value)


def test_malformed_json_reports_position():
    with pytest.raises(InterchangeError) as err:
        deserialize("{not json")
    assert "line 1" in str(err.value)


def test_missing_fields_are_reported():
    with pytest.raises(InterchangeError):
        deserialize('{"roots": []}')
    with pytest.raises(InterchangeError):
        deserialize('{"roots": [], "productions": [{"lhs": "a"}]}')


def test_duplicated_root_is_reported_with_its_path():
    # the first repeat is the one reported
    for roots, path, reason in [('["a", "b", "a"]', "$.roots[2]", "duplicate root 'a'"),
                                ('["a", "b", "c", "c", "b", "a"]', "$.roots[3]",
                                 "duplicate root 'c'")]:
        doc = '{"roots": %s, "productions": [{"label": null, "lhs": "a", ' \
              '"rhs": {"tag": "n", "name": "b"}}]}' % roots
        with pytest.raises(InterchangeError) as err:
            deserialize(doc)
        assert err.value.path == path
        assert err.value.reason == reason


@pytest.mark.parametrize("name", ["str", "int"])
def test_a_reserved_value_name_is_refused_with_its_path(fl_master, name):
    doc = json.loads(serialize(fl_master))
    doc["productions"][0]["lhs"] = name
    with pytest.raises(InterchangeError) as err:
        deserialize(json.dumps(doc))
    assert str(err.value) == (f"$.productions[0].lhs: {name!r} "
                               "is the reserved name of a built-in value")
    doc = json.loads(serialize(fl_master))
    doc["productions"][1]["rhs"] = {"tag": "seq", "parts": [
        {"tag": "n", "name": "expr"}, {"tag": "n", "name": name}]}
    with pytest.raises(InterchangeError) as err:
        deserialize(json.dumps(doc))
    assert err.value.path == "$.productions[1].rhs.parts[1].name"
    assert err.value.reason == f"{name!r} is the reserved name of a built-in value"


def _leaf_ids(g: Grammar) -> set[int]:
    return set().union(*oracles.leaf_objects(g).values())


def test_a_deserialized_grammar_holds_one_leaf_per_name_and_text(data_dir):
    pgen = parse_spec((data_dir / "pgen.edd").read_text(encoding="utf-8"))
    recovered = recover((data_dir / "lib2to3_Grammar.txt").read_text(encoding="utf-8"),
                        pgen).grammar
    text = serialize(recovered)
    first, second = deserialize(text), deserialize(text)
    assert first == second == recovered
    for g in (first, second):
        assert all(len(ids) == 1 for ids in oracles.leaf_objects(g).values())
    # separate calls share no leaf object
    assert not _leaf_ids(first) & _leaf_ids(second)
    assert not _leaf_ids(first) & _leaf_ids(recovered)
    doc = expr_to_json(seq(n("a"), t("x"), n("a"), t("x")))
    one, other = expr_from_json(doc), expr_from_json(doc)
    assert one.parts[0] is one.parts[2] and one.parts[1] is one.parts[3]
    assert not {id(part) for part in one.parts} & {id(part) for part in other.parts}


# each malformed name after a valid one: the exception and its text, as
# decoding reported them before leaves were shared
_BAD_NAMES = [
    ({"tag": "n"}, InterchangeError, "{path}: missing field 'name'"),
    ({"tag": "n", "name": ["a"]}, InterchangeError, "{path}.name: expected str, got list"),
    ({"tag": "n", "name": ""}, GrammarError, "nonterminal name must be non-empty"),
    ({"tag": "n", "name": "str"}, InterchangeError,
     "{path}.name: 'str' is the reserved name of a built-in value"),
]


@pytest.mark.parametrize("bad, error, message", _BAD_NAMES)
def test_a_malformed_name_after_a_valid_one_fails_as_before(bad, error, message):
    good = {"tag": "n", "name": "a"}
    rhs = {"tag": "seq", "parts": [good, bad]}
    doc = {"roots": [], "productions": [
        {"label": None, "lhs": "x", "rhs": {"tag": "seq", "parts": [good, good]}},
        {"label": None, "lhs": "y", "rhs": rhs}]}
    with pytest.raises(error) as err:
        deserialize(json.dumps(doc))
    assert str(err.value) == message.format(path="$.productions[1].rhs.parts[1]")
    with pytest.raises(error) as err:
        expr_from_json(rhs)
    assert str(err.value) == message.format(path="rhs.parts[1]")


def test_deserialize_reads_back_every_depth_serialize_writes(data_dir):
    # the JSON writer recurses too, and gives out near 330 levels of
    # `( c ... )*`, sooner under a deep caller such as the test runner; that
    # limit is not checked here, but every depth it writes must read back
    notation = parse_spec((data_dir / "reference.edd").read_text(encoding="utf-8"))
    written_depths = []
    for depth in range(200, 331, 10):
        text = "a ::= " + "( c " * depth + "b" + " )*" * depth + " ;"
        try:
            written = serialize(recover(text, notation).grammar)
        except RecursionError:
            continue
        # the texts are compared, since == on the trees recurses
        assert serialize(deserialize(written)) == written, depth
        written_depths.append(depth)
    assert written_depths[-1] >= 280, written_depths


def test_deserialize_normalizes_degenerate_nesting():
    doc = '{"roots": [], "productions": [{"label": null, "lhs": "a", ' \
          '"rhs": {"tag": "seq", "parts": [{"tag": "n", "name": "b"}]}}]}'
    assert deserialize(doc) == Grammar((), (p("a", n("b")),))


def test_serialized_form_is_stable():
    g = Grammar((), (p("a", seq(t("x"), n("b"))),))
    assert serialize(g) == serialize(deserialize(serialize(g)))


def _indented(doc) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


_CHARS = ['"', "\\", "/", "\b", "\f", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "é",
          "\u2028", "\u00a0", "\ud7ff", "\ufeff", "😀", "\U0010ffff", "a", "Z", " ", ":", ","]
_FLOATS = [0.0, -0.0, 1.5, -2.25e-10, 1e300, 3.141592653589793, float("nan"),
           float("inf"), float("-inf")]


def _random_doc(rng: random.Random, depth: int):
    roll = rng.random() if depth else rng.random() * 0.6
    if roll < 0.2:
        return "".join(rng.choices(_CHARS, k=rng.randint(0, 6)))
    if roll < 0.3:
        return rng.choice([0, 1, -7, 2**70, -(2**64)])
    if roll < 0.4:
        return rng.choice(_FLOATS + [True, False, None])
    if roll < 0.6:
        return [rng.randint(-5, 5) for _ in range(rng.randint(0, 4))]
    kids = [_random_doc(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    if roll < 0.8:
        return kids if rng.random() < 0.7 else tuple(kids)
    keys = ["".join(rng.choices(_CHARS, k=rng.randint(0, 3))) for _ in kids]
    return dict(zip(keys, kids))


def test_dumps_matches_json_indent_on_random_documents():
    rng = random.Random(13)
    for _ in range(600):
        doc = _random_doc(rng, 4)
        assert dumps(doc) == _indented(doc), doc
    for doc in ({}, [], (), "", {"": {}}, [[]], {"a": [{}, [], ()]}, [[1, 2], [3]],
                {1: "int key", 2.5: "float key", False: 0, None: [None]}):
        assert dumps(doc) == _indented(doc)


def test_dumps_raises_what_json_dumps_raises():
    for doc in ([object()], {"a": {1, 2}}, {(1, 2): 0}):
        with pytest.raises(TypeError) as ours:
            dumps(doc)
        with pytest.raises(TypeError) as theirs:
            _indented(doc)
        assert str(ours.value) == str(theirs.value)


def test_dumps_matches_json_indent_on_committed_documents(data_dir):
    for path in sorted(data_dir.glob("*.json")):
        text = path.read_text(encoding="utf-8")
        assert dumps(json.loads(text)) == _indented(json.loads(text)) == text, path.name


def test_dumps_matches_json_indent_on_cli_traces_and_reports(tmp_path, data_dir):
    assert main(["recover", str(data_dir / "fl_master.ebnf"),
                 "--notation", str(data_dir / "factorial.edd"),
                 "--out", str(tmp_path / "fl.json"),
                 "--report", str(tmp_path / "recover.json")]) == 0
    assert main(["mutate", str(data_dir / "jaxb_model.json"), "--mutation", "normalize-anf",
                 "--out", str(tmp_path / "anf.json")]) == 0
    assert main(["converge", str(data_dir / "fl_master_abstract.json"),
                 str(data_dir / "jaxb_model.json"),
                 "--report", str(tmp_path / "converge.json")]) == 0
    for name in ("recover.json", "anf.json.trace", "converge.json"):
        text = (tmp_path / name).read_text(encoding="utf-8")
        assert text == _indented(json.loads(text)), name


def test_a_leaf_whose_text_is_no_string_is_written_as_json_dumps_writes_it():
    # no reader builds such a leaf, but direct construction can
    leaves = [Nonterminal(5), Terminal(1.5)]
    for leaf in leaves:
        assert dumps(leaf) == _indented(expr_to_json(leaf))
    g = Grammar(("a",), (p("a", seq(*leaves)), p("b", Nonterminal(5)), p("c", Terminal(1.5))))
    assert serialize(g) == _indented(grammar_to_json(g))


def _non_ascii(g: Grammar) -> Grammar:
    """g with every name and label spelt with characters the writer escapes
    or leaves as they are, and one more rule of such a terminal."""
    names = {name: f"{name}é😀\u2028" for name in "aa bb cc dd ee ff gg hh".split()}
    prods = tuple(Production(names.get(prod.lhs, prod.lhs), rename_expr(prod.rhs, names),
                             prod.label and prod.label + "λ")
                  for prod in g.productions)
    extra = Production("aaé😀\u2028", sel("ü\"\\", t("\t\x00ß\ufeff")), "ł")
    return Grammar(tuple(names.get(root, root) for root in g.roots), prods + (extra,))


def _expression_grammars() -> list[Grammar]:
    rng = random.Random(29)
    return [_non_ascii(draw(rng)) for _ in range(60)
            for draw in (random_grammar, random_expressible)]


def test_dumps_writes_expressions_as_their_json_objects():
    seen: set[type] = set()
    labels = 0
    for g in _expression_grammars():
        labels += sum(prod.label is not None for prod in g.productions)
        stack = [prod.rhs for prod in g.productions]
        while stack:
            expr = stack.pop()
            seen.add(type(expr))
            stack.extend(children(expr))
        rhss = [prod.rhs for prod in g.productions]
        for doc, plain in ((rhss[0], expr_to_json(rhss[0])),
                           ({"rhss": rhss, "roots": g.roots},
                            {"rhss": [expr_to_json(rhs) for rhs in rhss], "roots": g.roots}),
                           ([(rhs, None) for rhs in rhss],
                            [[expr_to_json(rhs), None] for rhs in rhss])):
            assert dumps(doc) == _indented(plain)
        assert serialize(g) == _indented(grammar_to_json(g))
    assert seen == set(NODE_TABLE) and len(seen) == 15
    assert labels > 0


def test_serialize_writes_the_json_tree_of_every_committed_grammar(data_dir):
    written = 0
    for path in sorted(data_dir.glob("*.json")):
        text = path.read_text(encoding="utf-8")
        if "productions" in json.loads(text):
            g = deserialize(text)
            assert serialize(g) == _indented(grammar_to_json(g)) == text, path.name
            written += 1
    assert written >= 4


def test_a_rhs_that_is_not_an_expression_is_a_type_error():
    g = Grammar(("a",), (Production("a", n("b")), Production("b", "oops")))
    with pytest.raises(TypeError) as ours:
        serialize(g)
    with pytest.raises(TypeError) as theirs:
        grammar_to_json(g)
    assert str(ours.value) == str(theirs.value) == "not an expression: 'oops'"


def _outcome(read, text: str):
    """What read(text) gives: a grammar, or its exception's class and text."""
    try:
        return read(text)
    except Exception as exc:  # every class is compared, not only the expected ones
        return type(exc), str(exc)


def _assert_reads_alike(text: str) -> None:
    """`deserialize` gives what the checking reader gives, and the checking
    reader what the recursive reader it replaced gives."""
    ours = _outcome(deserialize, text)
    assert ours == _outcome(lambda text: grammar_from_json(json.loads(text)), text), text
    assert ours == _outcome(lambda text: oracles.grammar_from_json(json.loads(text)), text)
    if isinstance(ours, Grammar):
        assert all(len(ids) == 1 for ids in oracles.leaf_objects(ours).values())


def _objects(doc) -> list[dict]:
    """Every JSON object in doc."""
    found, stack = [], [doc]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            found.append(value)
            stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)
    return found


def _expressions(doc: dict, tags=("epsilon", "t", "n", "seq", "choice", "opt", "star",
                                   "plus", "sepstar", "sepplus", "sel")) -> list[dict]:
    return [obj for obj in _objects(doc.get("productions"))
            if isinstance(obj.get("tag"), str) and obj["tag"] in tags]


_SHAPED = [{"tag": "epsilon"}, {"tag": "n", "name": "a"}, {"tag": "t", "text": "x"},
           {"tag": "seq", "parts": [{"tag": "n", "name": "a"}, {"tag": "t", "text": "x"}]}]


def _mutate(rng: random.Random, doc: dict) -> None:
    """One seeded defect, or one expression-shaped object where no
    expression is read, planted in the interchange document doc."""
    shaped = json.loads(json.dumps(rng.choice(_SHAPED)))
    exprs = _expressions(doc)
    leaves = _expressions(doc, ("t", "n"))
    rules = doc.get("productions")
    rules = rules if isinstance(rules, list) else []
    prods = [prod for prod in rules if isinstance(prod, dict)]
    roll = rng.randrange(12)
    if roll == 0:  # a dropped key
        obj = rng.choice(_objects(doc))
        if obj:
            del obj[rng.choice(sorted(obj))]
    elif roll == 1:  # a retyped value
        obj = rng.choice(_objects(doc))
        if obj:
            obj[rng.choice(sorted(obj))] = rng.choice([None, 0, "s", [], {}, True, 1.5])
    elif roll == 2 and leaves:  # an empty text
        leaf = rng.choice(leaves)
        leaf["text" if leaf["tag"] == "t" else "name"] = ""
    elif roll == 3:  # a reserved value name
        name = rng.choice(["str", "int"])
        if leaves and rng.random() < 0.7:
            leaf = rng.choice(leaves)
            leaf["tag"], leaf["name"] = "n", name
            leaf.pop("text", None)
        elif prods:
            rng.choice(prods)["lhs"] = name
    elif roll == 4 and exprs:  # an unknown tag
        rng.choice(exprs)["tag"] = rng.choice(["wat", "N", ""])
    elif roll == 5 and exprs:  # an unhashable tag
        rng.choice(exprs)["tag"] = rng.choice([["seq"], {"tag": "n"}, {"tag": "epsilon"}])
    elif roll == 6:  # expression-shaped top level
        doc.update(shaped)
    elif roll == 7 and prods:  # as a production, or inside one
        if rng.random() < 0.5:
            rules[rng.randrange(len(rules))] = shaped
        else:
            rng.choice(prods).update(shaped)
    elif roll == 8 and prods:  # as a label
        rng.choice(prods)["label"] = shaped
    elif roll == 9 and isinstance(doc.get("roots"), list):  # as a root
        doc["roots"].insert(rng.randint(0, len(doc["roots"])), shaped)
    elif roll == 10 and leaves:  # inside a terminal's text
        leaf = rng.choice(leaves)
        leaf["tag"], leaf["text"] = "t", shaped
        leaf.pop("name", None)
    elif roll == 11:  # under an extra key
        rng.choice(_objects(doc))["extra"] = shaped


def test_deserialize_reads_every_document_as_the_checking_reader_does(data_dir):
    texts = [path.read_text(encoding="utf-8") for path in sorted(data_dir.glob("*.json"))]
    texts += [serialize(g) for g in corpus(23, 120)]
    for text in texts:
        _assert_reads_alike(text)
    rng = random.Random(19)
    for i in range(1500):
        doc = json.loads(texts[i % len(texts)])
        for _ in range(rng.choice([1, 1, 1, 2, 3])):
            _mutate(rng, doc)
        _assert_reads_alike(json.dumps(doc))


def test_the_checking_reader_reads_past_the_recursion_limit():
    # the reader keeps its own stack, so it reads what the recursive reader
    # it replaced could not, and names a fault at the bottom by its full path
    depth = sys.getrecursionlimit() + 100
    rhs = {"tag": "n", "name": "b"}
    for _ in range(depth):
        rhs = {"tag": "star", "body": {"tag": "seq", "parts": [{"tag": "t", "text": "c"}, rhs]}}
    doc = {"roots": [], "productions": [{"label": None, "lhs": "a", "rhs": rhs}]}
    with pytest.raises(RecursionError):
        oracles.grammar_from_json(doc)
    read = grammar_from_json(doc).productions[0].rhs
    assert [type(sub).__name__ for sub in subterms(read)] == (
        ["Star", "Sequence", "Terminal"] * depth + ["Nonterminal"])
    bottom = doc["productions"][0]["rhs"]
    for _ in range(depth):
        bottom = bottom["body"]["parts"][1]
    bottom["tag"] = "wat"
    with pytest.raises(InterchangeError) as err:
        grammar_from_json(doc)
    assert str(err.value) == "$.productions[0].rhs" + ".body.parts[1]" * depth + (
        ": unknown expression tag 'wat'")


def test_deserialize_reads_every_depth_the_checking_reader_reads():
    # the hook's frames at the innermost object cost the parser a level or
    # two, which the checking reader makes up for; the trees are compared
    # by their preorders, since == recurses.  Each depth's rhs wraps the
    # previous depth's, so the texts cost O(depth) each to build
    def wrapped(rhs: str) -> str:
        return '{"tag": "star", "body": {"tag": "seq", "parts": [%s, %s]}}' % (
            '{"tag": "t", "text": "c"}', rhs)

    rhs = '{"tag": "n", "name": "b"}'
    for _ in range(199):
        rhs = wrapped(rhs)
    for depth in itertools.count(200):
        rhs = wrapped(rhs)
        text = '{"roots": [], "productions": [{"label": null, "lhs": "a", "rhs": %s}]}' % rhs
        ours = _outcome(deserialize, text)
        theirs = _outcome(lambda text: grammar_from_json(json.loads(text)), text)
        if not isinstance(theirs, Grammar):
            assert ours == theirs and theirs[0] is RecursionError, depth
            break
        assert isinstance(ours, Grammar), depth
        assert ([type(sub) for sub in subterms(ours.productions[0].rhs)]
                == [type(sub) for sub in subterms(theirs.productions[0].rhs)])
    assert depth > 250


def _committed_grammars(data_dir) -> list[Grammar]:
    """Every committed grammar: the interchange fixtures, and the committed
    texts recovered in their dialects."""
    found = []
    for path in sorted(data_dir.glob("*.json")):
        text = path.read_text(encoding="utf-8")
        if "productions" in json.loads(text):
            found.append(deserialize(text))
    dialects = {name: parse_spec((data_dir / name).read_text(encoding="utf-8"))
                for name in ("factorial.edd", "pgen.edd")}
    found.append(recover((data_dir / "fl_master.ebnf").read_text(encoding="utf-8"),
                         dialects["factorial.edd"]).grammar)
    for path in sorted(data_dir.glob("lib2to3_Grammar*.txt")):
        found.append(recover(path.read_text(encoding="utf-8"), dialects["pgen.edd"]).grammar)
    return found


def _odd_rules() -> list[Grammar]:
    """Grammars whose labels or left-hand sides are not strings, each before
    a rule that is well formed, and one whose bad rhs follows a bad label."""
    class Text(str):
        pass

    good = Production("b", seq(n("c"), t("d")), "l")
    odd = [Production("a", n("b"), label) for label in
           (5, 1.5, True, ["l"], {"k": "v"}, Text("sub"), float("nan"), object())]
    odd += [Production(7, n("b")), Production(Text("a"), n("b"), Text("l"))]
    grammars = [Grammar((), (prod, good)) for prod in odd]
    grammars.append(Grammar((), (Production("a", n("b"), 5), Production("b", "oops"))))
    return grammars


def test_serialize_writes_what_the_dict_per_rule_writer_wrote(data_dir):
    grammars = (_committed_grammars(data_dir) + corpus(31, 200) + _expression_grammars()
                + [Grammar((), ()), Grammar(("a",), (p("a", n("b")),))])
    for g in grammars:
        assert serialize(g) == oracles.serialize(g)
    for g in _odd_rules():
        assert _outcome(serialize, g) == _outcome(oracles.serialize, g), g.productions[0]
    # a label that is not a string keeps its JSON type
    assert '"label": 5,' in serialize(_odd_rules()[0])


def _leaf_shape(g: Grammar) -> list[int]:
    """For each leaf occurrence in preorder, the rank of its object in the
    order objects first appear: readers that share leaves alike give the
    same list."""
    first: dict[int, int] = {}
    return [first.setdefault(id(sub), len(first))
            for prod in g.productions for sub in subterms(prod.rhs) if not children(sub)]


def test_deserialize_builds_what_the_decoder_loop_built(data_dir):
    texts = [path.read_text(encoding="utf-8") for path in sorted(data_dir.glob("*.json"))]
    texts = [text for text in texts if "productions" in json.loads(text)]
    texts += [serialize(g) for g in _committed_grammars(data_dir) + corpus(37, 200)
              + _expression_grammars()]
    for text in texts:
        ours, theirs = deserialize(text), oracles.deserialize(text)
        assert ours == theirs and repr(ours) == repr(theirs)
        assert all(len(ids) == 1 for ids in oracles.leaf_objects(ours).values())
        assert _leaf_shape(ours) == _leaf_shape(theirs)


_GOOD_RULE = {"label": None, "lhs": "x", "rhs": {"tag": "seq", "parts": [
    {"tag": "n", "name": "a"}, {"tag": "t", "text": "c"}]}}

# right-hand sides aimed at each path the reader's hook builds directly
_CORRUPT = [
    # a tag that is not a string: unhashable, a node, a number, null, missing
    {"tag": {"tag": "n"}, "name": "a"}, {"tag": {"tag": "epsilon"}}, {"tag": ["n"], "name": "a"},
    {"tag": ["seq"], "parts": []}, {"tag": 1}, {"tag": None}, {"name": "a"},
    {"tag": "seq", "parts": [{"tag": {"tag": "t", "text": "c"}, "text": "c"},
                             {"tag": "n", "name": "a"}]},
    # a name or text that is not a string, empty, reserved or missing
    {"tag": "n", "name": 5}, {"tag": "n", "name": None}, {"tag": "n", "name": ["a"]},
    {"tag": "n", "name": {"tag": "n", "name": "a"}}, {"tag": "n", "name": ""},
    {"tag": "n", "name": "str"}, {"tag": "n", "name": "int"}, {"tag": "n"},
    {"tag": "n", "text": "a"}, {"tag": "t", "text": 5}, {"tag": "t", "text": ""},
    {"tag": "t", "text": {"tag": "t", "text": "c"}}, {"tag": "t"}, {"tag": "t", "name": "a"},
    {"tag": "t", "text": "str"},
    {"tag": "seq", "parts": [{"tag": "n", "name": "a"}, {"tag": "n", "name": "str"}]},
    {"tag": "choice", "alternatives": [{"tag": "t", "text": "c"}, {"tag": "t", "text": ""}]},
    # a child that is not an expression
    {"tag": "seq", "parts": [{"tag": "n", "name": "a"}, 5]},
    {"tag": "seq", "parts": [{"tag": "n", "name": "a"}, "b"]},
    {"tag": "seq", "parts": [{"tag": "n", "name": "a"}, None]},
    {"tag": "seq", "parts": [{"tag": "n", "name": "a"}, [{"tag": "n", "name": "b"}]]},
    {"tag": "seq", "parts": [{"tag": "n", "name": "a"}, {"tag": "wat"}]},
    {"tag": "seq", "parts": {"tag": "n", "name": "a"}}, {"tag": "seq", "parts": "ab"},
    {"tag": "seq"}, {"tag": "seq", "alternatives": [{"tag": "n", "name": "a"}]},
    {"tag": "choice", "alternatives": [{"tag": "n", "name": "a"}, {"extra": 1}]},
    {"tag": "choice", "alternatives": None}, {"tag": "choice", "parts": []},
    {"tag": "star", "body": 5}, {"tag": "star", "body": [{"tag": "n", "name": "a"}]},
    {"tag": "star"}, {"tag": "plus", "body": {"tag": "wat"}}, {"tag": "opt", "body": None},
    {"tag": "opt", "body": "a"}, {"tag": "star", "parts": [{"tag": "n", "name": "a"}]},
    {"tag": "sel", "selector": 5, "body": {"tag": "n", "name": "a"}},
    {"tag": "sepstar", "item": {"tag": "n", "name": "a"}, "separator": 5},
    # nested or one-part sequences and choices, and unit children
    {"tag": "seq", "parts": [{"tag": "n", "name": "a"}]}, {"tag": "seq", "parts": []},
    {"tag": "choice", "alternatives": [{"tag": "t", "text": "c"}]},
    {"tag": "choice", "alternatives": []},
    {"tag": "seq", "parts": [{"tag": "seq", "parts": [{"tag": "n", "name": "a"},
                                                      {"tag": "t", "text": "c"}]},
                             {"tag": "n", "name": "a"}]},
    {"tag": "choice", "alternatives": [
        {"tag": "choice", "alternatives": [{"tag": "n", "name": "a"}, {"tag": "n", "name": "b"}]},
        {"tag": "seq", "parts": [{"tag": "epsilon"}, {"tag": "n", "name": "a"}]}]},
    {"tag": "seq", "parts": [{"tag": "epsilon"}, {"tag": "n", "name": "a"}, {"tag": "epsilon"}]},
    {"tag": "seq", "parts": [{"tag": "epsilon"}, {"tag": "epsilon"}]},
    {"tag": "seq", "parts": [{"tag": "empty"}, {"tag": "n", "name": "a"}]},
    {"tag": "choice", "alternatives": [{"tag": "empty"}, {"tag": "t", "text": "c"}]},
    {"tag": "choice", "alternatives": [{"tag": "empty"}, {"tag": "empty"}]},
    {"tag": "choice", "alternatives": [{"tag": "epsilon"}, {"tag": "n", "name": "a"}]},
    {"tag": "star", "body": {"tag": "seq", "parts": [{"tag": "t", "text": "c"}]}},
    {"tag": "plus", "body": {"tag": "choice", "alternatives": [{"tag": "empty"}]}},
    {"tag": "opt", "body": {"tag": "epsilon"}, "parts": 5},
]


@pytest.mark.parametrize("rhs", _CORRUPT, ids=lambda rhs: json.dumps(rhs)[:60])
def test_a_corrupt_expression_reads_as_the_checking_reader_reads_it(rhs):
    doc = {"roots": [], "productions": [_GOOD_RULE, {"label": None, "lhs": "y", "rhs": rhs}]}
    text = json.dumps(doc)
    ours = _outcome(deserialize, text)
    assert ours == _outcome(lambda text: grammar_from_json(json.loads(text)), text)
    assert ours == _outcome(oracles.deserialize, text)
    if isinstance(ours, Grammar):
        assert all(len(ids) == 1 for ids in oracles.leaf_objects(ours).values())


@pytest.mark.parametrize("label", [5, True, 1.5, [], ["l"], {"tag": "n", "name": "a"},
                                   {"tag": "t", "text": "c"}, {}, "", "l"])
def test_a_label_reads_as_the_checking_reader_reads_it(label):
    doc = {"roots": [], "productions": [_GOOD_RULE, dict(_GOOD_RULE, label=label)]}
    text = json.dumps(doc)
    ours = _outcome(deserialize, text)
    assert ours == _outcome(lambda text: grammar_from_json(json.loads(text)), text)
    assert ours == _outcome(oracles.deserialize, text)


def test_every_committed_grammar_pickles_and_deep_copies(data_dir):
    grammars = _committed_grammars(data_dir)
    assert len(grammars) >= 10
    for g in grammars:
        again = pickle.loads(pickle.dumps(g))
        assert again == g
        assert serialize(again) == serialize(g)
        # a pickle keeps one object per object it was given, leaves included
        assert ({key: len(ids) for key, ids in oracles.leaf_objects(again).items()}
                == {key: len(ids) for key, ids in oracles.leaf_objects(g).items()})
        copied = copy.deepcopy(g)
        assert copied == g
        assert serialize(copied) == serialize(g)
        assert oracles.leaf_objects(copied) == oracles.leaf_objects(g)
