import json
import os
import shlex
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from gramconv import cli
from gramconv.cli import main
from gramconv.grammar import Grammar, n, p
from gramconv.interchange import deserialize, serialize

from conftest import FL_MAPPING


def read(path):
    return path.read_text(encoding="utf-8")


def test_recover_writes_committed_grammar(tmp_path, data_dir, capsys):
    out = tmp_path / "fl.json"
    code = main(["recover", str(data_dir / "fl_master.ebnf"),
                 "--notation", str(data_dir / "factorial.edd"),
                 "--out", str(out)])
    assert code == 0
    assert read(out) == read(data_dir / "fl_master.json")
    captured = capsys.readouterr()
    assert "operator" in captured.err  # undefined-nonterminal warning


def test_recover_missing_notation_is_usage_error(tmp_path, data_dir):
    code = main(["recover", str(data_dir / "fl_master.ebnf"),
                 "--notation", str(tmp_path / "nope.edd"),
                 "--out", str(tmp_path / "out.json")])
    assert code == 2


def test_recover_unbalanced_brackets_exit_1(tmp_path, data_dir, capsys):
    bad = tmp_path / "bad.ebnf"
    bad.write_text("a ::= ( b ;\n", encoding="utf-8")
    code = main(["recover", str(bad),
                 "--notation", str(data_dir / "factorial.edd"),
                 "--out", str(tmp_path / "out.json")])
    assert code == 1
    assert "line 1" in capsys.readouterr().err


def test_recover_report_file(tmp_path, data_dir):
    out = tmp_path / "fl.json"
    report = tmp_path / "report.json"
    main(["recover", str(data_dir / "fl_master.ebnf"),
          "--notation", str(data_dir / "factorial.edd"),
          "--out", str(out), "--report", str(report)])
    doc = json.loads(read(report))
    assert any(w["message"].startswith("nonterminal") for w in doc["warnings"])
    assert any(h["name"] == "vertical-redefinition" for h in doc["heuristics"])


def test_unparse_roundtrip_via_cli(tmp_path, data_dir):
    text = tmp_path / "fl.ebnf"
    back = tmp_path / "fl.json"
    assert main(["unparse", str(data_dir / "fl_master.json"),
                 "--notation", str(data_dir / "factorial.edd"),
                 "--out", str(text)]) == 0
    assert main(["recover", str(text),
                 "--notation", str(data_dir / "factorial.edd"),
                 "--out", str(back)]) == 0
    assert read(back) == read(data_dir / "fl_master.json")


def test_mutate_normalize_anf_matches_expected_grammar(tmp_path, data_dir):
    out = tmp_path / "anf.json"
    code = main(["mutate", str(data_dir / "jaxb_model.json"),
                 "--mutation", "normalize-anf", "--out", str(out)])
    assert code == 0
    assert deserialize(read(out)) == deserialize(read(data_dir / "jaxb_anf.json"))
    trace = json.loads(read(tmp_path / "anf.json.trace"))
    assert isinstance(trace, list) and trace


def test_mutate_with_argument(tmp_path, data_dir):
    out = tmp_path / "renamed.json"
    code = main(["mutate", str(data_dir / "jaxb_anf.json"),
                 "--mutation", "disciplined-rename:lower", "--out", str(out)])
    assert code == 0
    g = deserialize(read(out))
    assert {prod.lhs for prod in g.productions} >= {"expr", "function", "program"}


def test_mutate_unknown_kind_is_domain_error(tmp_path, data_dir, capsys):
    code = main(["mutate", str(data_dir / "jaxb_anf.json"),
                 "--mutation", "negotiate", "--out", str(tmp_path / "x.json")])
    assert code == 1


def test_transform_empty_script_identity(tmp_path, data_dir):
    script = tmp_path / "script.json"
    script.write_text("[]", encoding="utf-8")
    out = tmp_path / "out.json"
    code = main(["transform", str(data_dir / "fl_master.json"),
                 "--script", str(script), "--out", str(out)])
    assert code == 0
    assert read(out) == read(data_dir / "fl_master.json")


def test_transform_failing_script_reports_index(tmp_path, data_dir, capsys):
    script = tmp_path / "script.json"
    script.write_text(json.dumps([
        {"op": "rename", "args": {"from": "expr", "to": "zz"}},
        {"op": "rename", "args": {"from": "ghost", "to": "gone"}},
    ]), encoding="utf-8")
    code = main(["transform", str(data_dir / "fl_master.json"),
                 "--script", str(script), "--out", str(tmp_path / "out.json")])
    assert code == 1
    assert "step 1" in capsys.readouterr().err


def test_prodsig_renders_table(data_dir, capsys):
    assert main(["prodsig", str(data_dir / "fl_master.json")]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert "{<expr, 1>, <str, 1+>}" in lines[1]
    assert "{<expr, 111>}" in lines[9]


def test_metrics_output(data_dir, capsys):
    assert main(["metrics", str(data_dir / "fl_master.json")]) == 0
    out = capsys.readouterr().out
    assert "productions: 10" in out
    assert "footprint 1: 8" in out


def test_converge_case_study(tmp_path, data_dir, capsys):
    report = tmp_path / "report.json"
    code = main(["converge", str(data_dir / "fl_master_abstract.json"),
                 str(data_dir / "jaxb_model.json"), "--report", str(report)])
    assert code == 0
    doc = json.loads(read(report))
    mapping = {left: right for left, right in doc["mapping"]}
    assert mapping == FL_MAPPING
    strengths = [pair["strength"] for pair in doc["pairs"]]
    assert strengths.count("strong") == 6 and strengths.count("weak") == 4
    assert doc["residue"] == []
    out = capsys.readouterr().out
    assert out.count("=~=") == 6 and out.count("~w~") == 4


def test_converge_identity(tmp_path, data_dir):
    code = main(["converge", str(data_dir / "jaxb_anf.json"),
                 str(data_dir / "jaxb_anf.json")])
    assert code == 0


def test_converge_residue_exit_3(tmp_path, data_dir):
    alien = tmp_path / "alien.json"
    alien.write_text(serialize(_alien_grammar()), encoding="utf-8")
    code = main(["converge", str(data_dir / "fl_master_abstract.json"), str(alien)])
    assert code == 3


def _alien_grammar():
    from gramconv.grammar import Grammar, n, opt, p, seq
    return Grammar(("top",), (
        p("top", seq(opt(n("bit")), opt(n("bit")), opt(n("bit")), opt(n("bit")))),
        p("bit", seq(opt(n("top")), opt(n("top")))),
    ))


def test_converge_verbose_dumps_phases(tmp_path, data_dir, capsys):
    main(["converge", str(data_dir / "fl_master_abstract.json"),
          str(data_dir / "jaxb_model.json"), "-v"])
    err = capsys.readouterr().err
    assert "servant-anf" in err
    assert "master-anf" in err


def test_malformed_grammar_file_is_domain_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"roots": []}', encoding="utf-8")
    assert main(["prodsig", str(bad)]) == 1


def test_color_disabled_by_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GRAMCONV_COLOR", "0")
    assert main(["prodsig", str(tmp_path / "missing.json")]) == 2
    assert "\x1b[" not in capsys.readouterr().err


def test_deterministic_outputs(tmp_path, data_dir):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        main(["mutate", str(data_dir / "jaxb_model.json"),
              "--mutation", "normalize-anf", "--out", str(out)])
    assert read(out1) == read(out2)
    assert read(tmp_path / "a.json.trace") == read(tmp_path / "b.json.trace")


@pytest.mark.parametrize("step", [
    {"op": "set-label", "args": {"lhs": "expression", "pos": -1, "label": "x"}},
    {"op": "set-node", "args": {"lhs": "program", "pos": 0, "path": [-1],
                                "expr": {"tag": "n", "name": "q"}}},
    {"op": "insert-rule", "args": {"lhs": "expression", "pos": -1,
                                   "rhs": {"tag": "n", "name": "q"}}},
    {"op": "rename", "args": {"from": "program", "to": 5}},
    {"op": "set-label", "args": {"lhs": "expression", "pos": "0", "label": "x"}},
    {"op": "set-node", "args": {"lhs": "program", "pos": 0, "path": 5,
                                "expr": {"tag": "n", "name": "q"}}},
    {"op": "define", "args": {"name": "q", "rhs": "x"}},
])
def test_transform_malformed_argument_is_domain_error(tmp_path, data_dir, capsys, step):
    script = tmp_path / "script.json"
    script.write_text(json.dumps([step]), encoding="utf-8")
    out = tmp_path / "out.json"
    code = main(["transform", str(data_dir / "fl_master_abstract.json"),
                 "--script", str(script), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: step 0 (") and "argument" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_deeply_nested_grammar_file_is_domain_error(tmp_path, capsys):
    depth = 3000
    rhs = '{"tag":"star","body":' * depth + '{"tag":"n","name":"b"}' + "}" * depth
    deep = tmp_path / "deep.json"
    deep.write_text('{"roots":["a"],"productions":[{"label":null,"lhs":"a","rhs":'
                    + rhs + "}]}", encoding="utf-8")
    assert main(["prodsig", str(deep)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_deeply_nested_grammar_text_is_domain_error(tmp_path, data_dir, capsys):
    # recovery parses any depth, but writing the JSON of a deep tree recurses
    depth = 3000
    deep = tmp_path / "deep.ebnf"
    deep.write_text("a ::= " + "( c " * depth + "b" + " )*" * depth + " ;\n",
                    encoding="utf-8")
    out = tmp_path / "out.json"
    code = main(["recover", str(deep),
                 "--notation", str(data_dir / "factorial.edd"), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines()[-1] == "error: input is nested too deeply"  # after the warnings
    assert "Traceback" not in err
    assert not out.exists()


def test_deeply_grouped_grammar_text_recovers(tmp_path, data_dir):
    # groups around a single name leave a flat tree, whatever their depth
    depth = 3000
    deep = tmp_path / "deep.ebnf"
    deep.write_text("a ::= " + "(" * depth + " b " + ")" * depth + " ;\n",
                    encoding="utf-8")
    out = tmp_path / "out.json"
    code = main(["recover", str(deep),
                 "--notation", str(data_dir / "factorial.edd"), "--out", str(out)])
    assert code == 0
    assert deserialize(read(out)) == Grammar(("a",), (p("a", n("b")),))


def test_converge_duplicated_root_is_domain_error(tmp_path, data_dir, capsys):
    twice = tmp_path / "twice.json"
    twice.write_text(json.dumps({"roots": ["program", "program"], "productions": [
        {"label": None, "lhs": "program", "rhs": {"tag": "n", "name": "function"}}]}),
        encoding="utf-8")
    code = main(["converge", str(data_dir / "fl_master_abstract.json"), str(twice)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: $.roots[1]: duplicate root 'program'\n"


# argv ({data} and {tmp} are filled in, then split as a shell would), exit
# code, and the text that the error line holds, or, on success, that stdout
# or stderr holds
CLI_CASES = {
    "rename-without-convention": (
        "mutate {data}/fl_master.json --mutation disciplined-rename --out {tmp}/o.json",
        1, "error", "disciplined-rename needs a convention"),
    "extract-subgrammar-with-roots": (
        "mutate {data}/fl_master.json --mutation extract-subgrammar:binary,cond "
        "--out {tmp}/o.json", 0, "err", "extract-subgrammar: 3 change(s)"),
    "extract-subgrammar-without-roots": (
        "mutate {data}/fl_master.json --mutation extract-subgrammar --out {tmp}/o.json",
        1, "error", "extract-subgrammar needs root names"),
    "extract-subgrammar-with-an-empty-root-list": (
        "mutate {data}/fl_master.json --mutation extract-subgrammar:, --out {tmp}/o.json",
        1, "error", "extract-subgrammar needs root names"),
    "extract-subgrammar-with-a-blank-root": (
        "mutate {data}/fl_master.json --mutation 'extract-subgrammar: ' --out {tmp}/o.json",
        1, "error", "extract-subgrammar needs root names"),
    "stray-argument": (
        "mutate {data}/fl_master.json --mutation normalize-anf:now --out {tmp}/o.json",
        1, "error", "mutation 'normalize-anf' takes no argument"),
    "unparse-to-stdout": (
        "unparse {data}/fl_master.json --notation {data}/factorial.edd",
        0, "out", "program ::="),
    "recover-verbose-heuristics": (
        "recover {data}/fl_master.ebnf --notation {data}/factorial.edd --out {tmp}/o.json -v",
        0, "err", "heuristic vertical-redefinition"),
    "malformed-json-script": (
        "transform {data}/fl_master.json --script {tmp}/broken.json --out {tmp}/o.json",
        1, "error", "malformed JSON"),
    "directory-as-input": ("prodsig {tmp}", 2, "error", "is a directory"),
    "file-as-output-directory": (
        "recover {data}/fl_master.ebnf --notation {data}/factorial.edd "
        "--out {tmp}/broken.json/o.json",
        2, "error", "broken.json/o.json: Not a directory"),
    "output-to-full-device": (
        "recover {data}/fl_master.ebnf --notation {data}/factorial.edd --out /dev/full",
        2, "error", "/dev/full: No space left on device"),
    "output-to-dev-null": (
        "recover {data}/fl_master.ebnf --notation {data}/factorial.edd --out /dev/null",
        0, "err", "warning: nonterminal"),
}


@pytest.mark.parametrize("case", CLI_CASES)
def test_cli_outcomes(case, tmp_path, data_dir, capsys):
    command, expected_code, where, text = CLI_CASES[case]
    (tmp_path / "broken.json").write_text("[{", encoding="utf-8")
    argv = shlex.split(command.format(data=data_dir, tmp=tmp_path))
    code = main(argv)
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert code == expected_code
    assert "Traceback" not in captured.err
    if where == "error":
        assert len(errors) == 1 and text in errors[0]
    else:
        assert errors == []
        assert text in (captured.out if where == "out" else captured.err)


@pytest.mark.parametrize("step", [
    {"op": "insert-rule", "args": {"lhs": "str", "pos": 0,
                                   "rhs": {"tag": "n", "name": "expr"}}},
    {"op": "set-node", "args": {"lhs": "program", "pos": 0, "path": [],
                                "expr": {"tag": "n", "name": "str"}}},
])
def test_transform_may_not_create_a_reserved_value_name(tmp_path, data_dir, capsys, step):
    script = tmp_path / "script.json"
    script.write_text(json.dumps([step]), encoding="utf-8")
    out = tmp_path / "out.json"
    code = main(["transform", str(data_dir / "fl_master.json"),
                 "--script", str(script), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("error:") == 1
    assert "'str' is the reserved name of a built-in value" in err
    assert not out.exists()


def _recover_onto(data_dir, out) -> int:
    return main(["recover", str(data_dir / "fl_master.ebnf"),
                 "--notation", str(data_dir / "factorial.edd"), "--out", str(out)])


def test_an_existing_output_holds_exactly_the_new_bytes(tmp_path, data_dir):
    expected = (data_dir / "fl_master.json").read_bytes()
    out = tmp_path / "fl.json"
    for old in (expected + b"x" * 5000, expected[:10], b""):  # longer, shorter, empty
        out.write_bytes(old)
        assert _recover_onto(data_dir, out) == 0
        assert out.read_bytes() == expected


def test_an_existing_output_keeps_its_inode_and_mode(tmp_path, data_dir):
    out = tmp_path / "fl.json"
    out.write_bytes(b"x" * 9000)
    os.chmod(out, 0o640)
    inode = out.stat().st_ino
    assert _recover_onto(data_dir, out) == 0
    assert out.stat().st_ino == inode
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert out.read_bytes() == (data_dir / "fl_master.json").read_bytes()


def test_an_output_symlink_updates_its_target(tmp_path, data_dir):
    target = tmp_path / "target.json"
    target.write_bytes(b"x" * 9000)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert _recover_onto(data_dir, link) == 0
    assert link.is_symlink()
    assert target.read_bytes() == (data_dir / "fl_master.json").read_bytes()


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_a_new_output_gets_the_default_mode_under_the_umask(tmp_path, data_dir, umask):
    out = tmp_path / "fl.json"
    previous = os.umask(umask)
    try:
        assert _recover_onto(data_dir, out) == 0
    finally:
        os.umask(previous)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask


def test_no_output_is_truncated_to_zero_when_opened(tmp_path, data_dir, monkeypatch):
    # truncating an existing file to zero can stall for tens of milliseconds,
    # so outputs are opened without O_TRUNC and cut to length after writing
    opened = []
    real_open = cli.os.open

    def recording_open(path, flags, *args, **kwargs):
        opened.append((str(path), flags))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(cli.os, "open", recording_open)
    out = tmp_path / "anf.json"
    for _ in range(2):  # the second run overwrites both outputs
        assert main(["mutate", str(data_dir / "jaxb_model.json"),
                     "--mutation", "normalize-anf", "--out", str(out)]) == 0
    assert [path for path, _ in opened] == [str(out), f"{out}.trace"] * 2
    assert all(not flags & os.O_TRUNC for _, flags in opened)


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def _converge_args(data_dir):
    return ["converge", str(data_dir / "fl_master_abstract.json"),
            str(data_dir / "jaxb_model.json")]


def test_an_option_does_not_carry_over_to_the_next_call(tmp_path, data_dir, capsys):
    report = tmp_path / "report.json"
    assert main(_converge_args(data_dir) + ["--report", str(report)]) == 0
    first = capsys.readouterr()
    report.unlink()
    assert main(_converge_args(data_dir)) == 0
    assert not report.exists()
    assert capsys.readouterr() == first


def _run_case_study(data_dir, out_dir, capsys) -> list:
    """Outputs of recover, prodsig, metrics and converge, writing into out_dir."""
    runs = []
    for argv in (["recover", str(data_dir / "fl_master.ebnf"), "--notation",
                  str(data_dir / "factorial.edd"), "--out", str(out_dir / "fl.json")],
                 ["prodsig", str(data_dir / "fl_master.json")],
                 ["metrics", str(data_dir / "fl_master.json")],
                 _converge_args(data_dir) + ["--report", str(out_dir / "report.json")]):
        code = main(argv)
        captured = capsys.readouterr()
        runs.append((code, captured.out, captured.err.replace(str(out_dir), "<out>")))
    return runs + [(out_dir / name).read_bytes() for name in ("fl.json", "report.json")]


def test_a_usage_error_leaves_the_next_call_as_a_first_call(tmp_path, data_dir, capsys):
    cli.build_parser.cache_clear()  # the first call below builds the parser
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    expected = _run_case_study(data_dir, first, capsys)
    for argv in (["recover", str(data_dir / "fl_master.ebnf")], ["converge", "--report"],
                 ["metrics", "a", "b"], ["nonsense"], []):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "usage: gramconv" in capsys.readouterr().err
    assert _run_case_study(data_dir, second, capsys) == expected


def _gramconv(*argv: str, **kwargs) -> subprocess.CompletedProcess:
    """The CLI in a child process whose address space is capped at 1 GiB,
    so that an unbounded read fails in the child, not on the host."""
    source = str(Path(cli.__file__).parents[1])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = source + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from gramconv.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, text=True,
                          stderr=subprocess.PIPE, timeout=60, **kwargs)


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_a_device_input_is_refused_before_it_is_read():
    done = _gramconv("prodsig", "/dev/zero", stdout=subprocess.PIPE)
    assert done.returncode == 2
    assert done.stderr == "error: /dev/zero: not a regular file or a pipe\n"
    assert done.stdout == ""


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_a_pipe_is_read_to_its_end(data_dir, capsys):
    assert main(["prodsig", str(data_dir / "jaxb_model.json")]) == 0
    expected = capsys.readouterr()
    data = (data_dir / "jaxb_model.json").read_bytes()
    read_end, write_end = os.pipe()

    def feed() -> None:
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(data)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        assert main(["prodsig", f"/dev/fd/{read_end}"]) == 0
    finally:
        os.close(read_end)
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert capsys.readouterr() == expected


@pytest.mark.skipif(not os.path.exists("/proc/self/mem"), reason="no /proc")
def test_a_read_error_names_its_path(capsys):
    assert main(["prodsig", "/proc/self/mem"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: /proc/self/mem: ")
    assert err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("command", ["prodsig {data}/fl_master.json",
                                     "unparse {data}/fl_master.json --notation "
                                     "{data}/factorial.edd"])
def test_a_failed_write_to_standard_output_is_named(data_dir, command):
    # stdout is block-buffered here, so without a flush in the command the
    # write would fail only at exit, after main has returned
    with open("/dev/full", "w") as full:
        done = _gramconv(*command.format(data=data_dir).split(), stdout=full)
    assert done.returncode == 2
    assert done.stderr == "error: standard output: No space left on device\n"


def _planted_ladder_pairs(count):
    """Seeded rooted_anf masters, each with a renamed, rule-shuffled copy
    that swaps some + and * (weak-only pairs) and labels one rule, which
    normalization removes."""
    import random
    from gen import rooted_anf
    from gramconv.grammar import Plus, Production, Star, names_in_order, plus, rebuild, \
        rename_expr, star
    rng = random.Random(61)

    def swap(node):
        if isinstance(node, (Plus, Star)) and rng.random() < 0.3:
            return star(node.body) if isinstance(node, Plus) else plus(node.body)
        return node

    for _ in range(count):
        master = rooted_anf(rng, rng.randint(6, 16))
        names = names_in_order(master)
        image = [f"s{i}" for i in range(len(names))]
        rng.shuffle(image)
        phi = dict(zip(names, image))
        labeled = rng.randrange(len(master.productions))
        rules = [Production(phi[prod.lhs], rebuild(rename_expr(prod.rhs, phi), swap),
                            "l1" if i == labeled else None)
                 for i, prod in enumerate(master.productions)]
        rng.shuffle(rules)
        yield master, Grammar((phi[master.roots[0]],), tuple(rules))


def test_reports_and_traces_are_the_bytes_of_their_json_objects(tmp_path, data_dir):
    # the CLI hands `dumps` its reports and traces with their expressions
    # left in; the bytes are those of the JSON objects `report_to_json` and
    # `script_to_json` build, on the fixtures and on planted ladder pairs
    from gramconv.converge import guided_converge, report_to_json
    from gramconv.interchange import dumps
    from gramconv.mutate import Mutation, mutate
    from gramconv.transform import script_from_json, script_to_json
    fixtures = [deserialize(read(data_dir / name)) for name in
                ("fl_master_abstract.json", "jaxb_model.json", "jaxb_anf.json")]
    pairs = [(fixtures[0], fixtures[1]), (fixtures[2], fixtures[2]),
             (fixtures[0], _alien_grammar()), *_planted_ladder_pairs(20)]
    master_path, servant_path = tmp_path / "master.json", tmp_path / "servant.json"
    report_path, out = tmp_path / "report.json", tmp_path / "out.json"
    trace = tmp_path / "out.json.trace"
    seen = {"reports": 0, "residue": 0, "steps": 0}
    for master, servant in pairs:
        master_path.write_text(serialize(master), encoding="utf-8")
        servant_path.write_text(serialize(servant), encoding="utf-8")
        code = main(["converge", str(master_path), str(servant_path),
                     "--report", str(report_path)])
        assert code in (0, 3)
        report = guided_converge(master, servant)
        assert report_path.read_text(encoding="utf-8") == dumps(report_to_json(report))
        seen["reports"] += 1
        seen["residue"] += code == 3
        seen["steps"] += bool(report.normalization_trace and report.structural_trace)
        report_path.unlink()
        for kind in ("normalize-anf", "deyaccify-all"):
            assert main(["mutate", str(servant_path), "--mutation", kind, "--out", str(out)]) == 0
            steps = mutate(servant, Mutation(kind)).trace
            assert trace.read_text(encoding="utf-8") == dumps(script_to_json(steps))
            script = tmp_path / "script.json"
            trace.replace(script)
            assert main(["transform", str(servant_path), "--script", str(script),
                         "--out", str(out)]) == 0
            replayed = script_from_json(json.loads(read(script)))
            assert trace.read_text(encoding="utf-8") == dumps(script_to_json(replayed)) \
                == read(script)
    assert seen["reports"] == 23 and seen["residue"] >= 1 and seen["steps"] >= 10, seen
