"""The four workloads: their inputs, the timed operation, and the checks of
each output against a reference that gramconv did not produce.

A workload holds a fixed batch of items made from the seed.  `run` is the
timed operation on one item; `collect` turns its result into the bytes the
determinism gate compares and the counts the report needs; `check` compares
one collected output with its reference and returns a description of the
first mismatch, or None.  Neither `collect` nor `check` is timed.

gramconv functions are always reached through the module objects in `gc`
at call time, so a tracer that replaces a module attribute sees the call.

The seeded workloads run their items in a seeded shuffled order, not size by
size, so a spell in which the host runs slow is shared among the sizes
instead of shifting the one group that a percentile falls in.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import tempfile
import time
from pathlib import Path

import inputs

# acceptance criterion 1: the production signatures of the ten
# factorial-language master rules, as given by the source paper
FL_SIGNATURES = (
    ("program", {"function": "+"}),
    ("function", {"expr": "1", "str": "1+"}),
    ("expr", {"str": "1"}),
    ("expr", {"int": "1"}),
    ("expr", {"apply": "1"}),
    ("expr", {"binary": "1"}),
    ("expr", {"cond": "1"}),
    ("apply", {"expr": "+", "str": "1"}),
    ("binary", {"expr": "11", "operator": "1"}),
    ("cond", {"expr": "111"}),
)

# acceptance criterion 4: the mapping from the object-model grammar onto the
# abstract master
FL_MAPPING = {
    "Expr_2": "binary", "Expr_3": "conditional", "int": "int",
    "Function": "function", "str": "str", "Program": "program",
    "Expr": "expression", "Expr_1": "apply", "Ops": "operator",
}


def _json_bytes(doc) -> bytes:
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def replay_law_holds(gc, servant_raw, report_doc, master) -> bool:
    """Both traces of a report replayed on the raw servant, then renamed by
    the report's mapping, give the master's rules (as a multiset)."""
    steps = gc.transform.script_from_json(
        report_doc["normalization_trace"] + report_doc["structural_trace"])
    replayed = gc.transform.apply_script(servant_raw, steps)
    mapping = {a: b for a, b in report_doc["mapping"] if "omega" not in (a, b)}
    got = sorted((repr(mapping.get(prod.lhs, prod.lhs)),
                  repr(gc.grammar.rename_expr(prod.rhs, mapping)))
                 for prod in replayed.productions)
    want = sorted((repr(prod.lhs), repr(prod.rhs)) for prod in master.productions)
    return got == want


class Workload:
    name = ""
    items: list
    # see calibrate.py; measured on a 2-core shared Intel Xeon, where the
    # host's speed varied by up to 1.8 times between runs
    HOST_SENSITIVITY = 1.0

    def run(self, item):
        raise NotImplementedError

    def collect(self, item, result) -> dict:
        """{"bytes": output bytes, "steps": transformation steps emitted,
        optional "parts": {name: seconds} timed inside the operation, plus
        whatever `check` needs}."""
        raise NotImplementedError

    def check(self, item, out: dict) -> str | None:
        raise NotImplementedError

    def prods(self, item) -> int:
        raise NotImplementedError

    def known_defect(self, item) -> bool:
        return False

    def fingerprint(self) -> str:
        raise NotImplementedError

    def close(self) -> None:
        pass


class CaseStudy(Workload):
    """The README command sequence on the bundled factorial-language
    fixtures, in process through `gramconv.cli.main`; one operation is the
    whole sequence.  The seed is not used: the paper's scenario is fixed."""

    name = "case-study"
    REPEATS = 25
    FIXTURES = ("fl_master.ebnf", "factorial.edd", "jaxb_model.json",
                "fl_master_abstract.json", "fl_master.json", "jaxb_anf.json")

    def __init__(self, seed: int, root: Path, gc) -> None:
        self.gc = gc
        data = root / "tests" / "data"
        out_dir = root / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="case-study-", dir=out_dir))
        self.raw = {name: (data / name).read_bytes() for name in self.FIXTURES}
        for name in self.FIXTURES[:4]:
            (self.work / name).write_bytes(self.raw[name])
        self.fl_master = json.loads(self.raw["fl_master.json"])
        self.jaxb_anf = json.loads(self.raw["jaxb_anf.json"])
        self.master = gc.interchange.deserialize(self.raw["fl_master_abstract.json"].decode())
        self.servant = gc.interchange.deserialize(self.raw["jaxb_model.json"].decode())
        rules = {name: len(json.loads(self.raw[name])["productions"])
                 for name in ("fl_master.json", "jaxb_model.json",
                              "fl_master_abstract.json")}
        # recover, prodsig and metrics each read the ten master rules
        self.input_prods = (3 * rules["fl_master.json"] + rules["jaxb_model.json"]
                            + rules["fl_master_abstract.json"] + rules["jaxb_model.json"])
        w = str(self.work)
        self.commands = (
            ["recover", f"{w}/fl_master.ebnf", "--notation", f"{w}/factorial.edd",
             "--out", f"{w}/fl.json"],
            ["prodsig", f"{w}/fl.json"],
            ["metrics", f"{w}/fl.json"],
            ["mutate", f"{w}/jaxb_model.json", "--mutation", "normalize-anf",
             "--out", f"{w}/jaxb_anf.json"],
            ["converge", f"{w}/fl_master_abstract.json", f"{w}/jaxb_model.json",
             "--report", f"{w}/report.json"],
        )
        self.items = list(range(self.REPEATS))

    def run(self, item):
        codes, stdouts, stderrs = [], [], []
        for argv in self.commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                codes.append(self.gc.cli.main(list(argv)))
            stdouts.append(out.getvalue())
            stderrs.append(err.getvalue())
        return codes, stdouts, stderrs

    def collect(self, item, result) -> dict:
        codes, stdouts, stderrs = result
        # diagnostics name the input files, which live in a fresh directory
        stderrs = [err.replace(str(self.work), "<work>") for err in stderrs]
        files = {name: (self.work / name).read_bytes()
                 for name in ("fl.json", "jaxb_anf.json", "jaxb_anf.json.trace",
                              "report.json")}
        report = json.loads(files["report.json"])
        trace = json.loads(files["jaxb_anf.json.trace"])
        blob = json.dumps([codes, stdouts, stderrs]).encode() + b"".join(files.values())
        steps = (len(trace) + len(report["normalization_trace"])
                 + len(report["structural_trace"]))
        return {"bytes": blob, "steps": steps, "codes": codes, "stdouts": stdouts,
                "files": files, "report": report}

    def check(self, item, out: dict) -> str | None:
        if out["codes"] != [0] * len(self.commands):
            return f"exit codes {out['codes']}"
        if json.loads(out["files"]["fl.json"]) != self.fl_master:
            return "recovered grammar differs from fl_master.json"
        if not self._prodsig_matches(out["stdouts"][1]):
            return "prodsig signatures differ from the paper's table"
        if out["stdouts"][2] != self._expected_metrics():
            return "metrics differ from those of the paper's signature table"
        anf = json.loads(out["files"]["jaxb_anf.json"])
        if (sorted(map(_canon, anf["productions"]))
                != sorted(map(_canon, self.jaxb_anf["productions"]))
                or set(anf["roots"]) != set(self.jaxb_anf["roots"])):
            return "normalized servant differs from jaxb_anf.json"
        report = out["report"]
        pairs = [tuple(pair) for pair in report["mapping"]]
        if len(pairs) != len(FL_MAPPING) or dict(pairs) != FL_MAPPING:
            return f"mapping {pairs}"
        if report["residue"]:
            return "non-empty residue"
        if not replay_law_holds(self.gc, self.servant, report, self.master):
            return "replaying the report's traces does not give the master"
        return None

    @staticmethod
    def _prodsig_matches(stdout: str) -> bool:
        # the rule column is the program's own rendering; the signature
        # column must be the paper's, {<name, footprint>, ...} sorted by name
        lines = stdout.rstrip("\n").split("\n")
        return len(lines) == len(FL_SIGNATURES) and all(
            f" = {lhs} -> " in line and line.endswith(
                "   {" + ", ".join(f"<{name}, {sig[name]}>" for name in sorted(sig)) + "}")
            for line, (lhs, sig) in zip(lines, FL_SIGNATURES))

    @staticmethod
    def _expected_metrics() -> str:
        histogram: dict[str, int] = {}
        for _, sig in FL_SIGNATURES:
            for fp in sig.values():
                histogram[fp] = histogram.get(fp, 0) + 1
        lines = [f"productions: {len(FL_SIGNATURES)}",
                 f"distinct footprints: {len(histogram)}"]
        lines += [f"footprint {fp}: {count}" for fp, count in sorted(histogram.items())]
        lines.append("signature sizes: " + " ".join(
            f"{lhs}={len(sig)}" for lhs, sig in FL_SIGNATURES))
        return "\n".join(lines) + "\n"

    def prods(self, item) -> int:
        return self.input_prods

    def fingerprint(self) -> str:
        return hashlib.sha256(b"".join(self.raw.values())).hexdigest()

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _canon(doc) -> str:
    return json.dumps(doc, sort_keys=True)


class ConvergeLadder(Workload):
    """guided_converge plus report_to_json on rooted ANF masters and the
    servants planted from them, over a ladder of sizes."""

    name = "converge-ladder"
    # (productions in the master, instances).  The top rung costs a few
    # tenths of a second per instance today.  The counts put the median in
    # the middle of the 12-rule group and the 90th percentile in the middle
    # of the 20-rule one, so neither sits on the edge between two sizes.
    # Resolution cost varies by instance (a 20-rule one takes 0.65 to 1.5
    # times the rung's median), so each percentile's group is large enough
    # that its middle hardly moves from seed to seed.
    RUNGS = ((8, 12), (12, 42), (16, 6), (20, 12))
    WEAK_SHARE = 0.3

    def __init__(self, seed: int, root: Path, gc) -> None:
        self.gc = gc
        rng = random.Random(seed)
        self.items = [inputs.ladder_instance(rng, size, self.WEAK_SHARE, gc.grammar)
                      for size, count in self.RUNGS for _ in range(count)]
        rng.shuffle(self.items)  # sizes mixed in a pass: see the module docstring

    def run(self, item):
        master, servant, _ = item
        report = self.gc.converge.guided_converge(master, servant)
        return self.gc.converge.report_to_json(report)

    def collect(self, item, result) -> dict:
        steps = len(result["normalization_trace"]) + len(result["structural_trace"])
        return {"bytes": _json_bytes(result), "steps": steps, "report": result}

    def check(self, item, out: dict) -> str | None:
        master, servant, phi = item
        report = out["report"]
        values = {"str" if type(leaf).__name__ == "ValueStr" else "int"
                  for prod in master.productions for leaf in inputs.leaves(prod.rhs)
                  if type(leaf).__name__ in ("ValueStr", "ValueInt")}
        want = sorted([[phi[m], m] for m in phi] + [[v, v] for v in values])
        if sorted(report["mapping"]) != want:
            return "mapping differs from the planted renaming"
        if report["residue"]:
            return "non-empty residue"
        if not replay_law_holds(self.gc, servant, report, master):
            return "replaying the report's traces does not give the master"
        return None

    def prods(self, item) -> int:
        return len(item[0].productions) + len(item[1].productions)

    def fingerprint(self) -> str:
        return _digest(repr(item) for item in self.items)


class NormalizeCorpus(Workload):
    """normalize-anf on non-ANF grammars of mixed size, then the emitted
    trace replayed on the input; the two halves are timed side by side."""

    name = "normalize-corpus"
    HOST_SENSITIVITY = 0.5
    # the median falls in the middle of the 24-production group, the 90th
    # percentile inside the 48-production one; forty grammars in the first
    # and twelve in the second keep those percentiles steady across seeds
    SIZES = (12,) * 16 + (24,) * 40 + (48,) * 12 + (72,) * 2

    def __init__(self, seed: int, root: Path, gc) -> None:
        self.gc = gc
        rng = random.Random(seed)
        self.items = [inputs.corpus_grammar(rng, size, gc.grammar) for size in self.SIZES]
        rng.shuffle(self.items)  # sizes mixed in a pass: see the module docstring

    def run(self, item):
        started = time.perf_counter()
        result = self.gc.mutate.mutate(item, self.gc.mutate.Mutation("normalize-anf"))
        produced = time.perf_counter()
        replayed = self.gc.transform.apply_script(item, result.trace)
        return result, replayed, produced - started, time.perf_counter() - produced

    def collect(self, item, result) -> dict:
        mutation, replayed, produce_s, replay_s = result
        serialize = self.gc.interchange.serialize
        blob = (serialize(mutation.grammar)
                + json.dumps(self.gc.transform.script_to_json(mutation.trace))
                + serialize(replayed)).encode("utf-8")
        return {"bytes": blob, "steps": len(mutation.trace),
                "parts": {"produce_s": produce_s, "replay_s": replay_s},
                "grammar": mutation.grammar, "replayed": replayed}

    def check(self, item, out: dict) -> str | None:
        normal = out["grammar"]
        violations = self.gc.mutate.anf_check(normal)
        if violations:
            return f"output not in ANF: {violations[0]}"
        if out["replayed"] != normal:
            return "replaying the trace does not give the output"
        again = self.gc.mutate.mutate(normal, self.gc.mutate.Mutation("normalize-anf"))
        if again.trace:
            return f"a second normalize-anf emitted {len(again.trace)} steps"
        return None

    def prods(self, item) -> int:
        return len(item.productions)

    def fingerprint(self) -> str:
        return _digest(repr(item) for item in self.items)


class IngestText(Workload):
    """parse_spec, recover, serialize, deserialize and unparse on grammar
    texts written by the benchmark's own writer in the two committed
    dialects.  Two of the documents, one per dialect, nest DEPTH groups."""

    name = "ingest-text"
    HOST_SENSITIVITY = 0.5
    # (rules, dialect, documents).  The median falls in the middle of the
    # 160-rule documents and the 90th percentile in the middle of the ten
    # 640-rule ones.  Recovery costs a factorial.edd document about 1.5 times
    # a reference.edd one of the same size, so each of those two groups is in
    # one dialect, and the other sizes are in the other one.
    DOCUMENTS = ((80, "reference.edd", 8), (160, "factorial.edd", 16),
                 (320, "reference.edd", 4), (640, "factorial.edd", 10))
    # the deeply nested documents, 80 rules each, one per dialect: 2 in 40 is
    # the known-defect share recorded in BENCHMARK.json
    DEEP = ("factorial.edd", "reference.edd")
    DEPTH = 1000

    def __init__(self, seed: int, root: Path, gc) -> None:
        self.gc = gc
        rng = random.Random(seed)
        data = root / "tests" / "data"
        dialects = {name: (data / name).read_text(encoding="utf-8")
                    for name in self.DEEP}
        docs = [(rules, dialect, 0) for rules, dialect, count in self.DOCUMENTS
                for _ in range(count)]
        docs += [(80, dialect, self.DEPTH) for dialect in self.DEEP]
        self.items = []
        for rules, dialect, deep in docs:
            edd = dialects[dialect]
            text, roots, productions = inputs.ingest_document(
                rng, rules, inputs.read_edd(edd), gc.grammar, deep)
            self.items.append((edd, text, roots, productions, deep))
        rng.shuffle(self.items)  # sizes mixed in a pass: see the module docstring

    def run(self, item):
        edd, text = item[0], item[1]
        spec = self.gc.notation.parse_spec(edd)
        recovered = self.gc.recovery.recover(text, spec).grammar
        doc = self.gc.interchange.serialize(recovered)
        reread = self.gc.interchange.deserialize(doc)
        return recovered, doc, reread, self.gc.recovery.unparse(reread, spec)

    def collect(self, item, result) -> dict:
        recovered, doc, reread, text = result
        return {"bytes": (doc + text).encode("utf-8"), "steps": 0,
                "recovered": recovered, "reread": reread, "text": text}

    def check(self, item, out: dict) -> str | None:
        _, text, roots, productions, _ = item
        if not inputs.same_grammar(out["recovered"], roots, productions):
            return "recovered grammar differs from the generated one"
        if not inputs.same_grammar(out["reread"], roots, productions):
            return "JSON round trip is not the identity"
        if out["text"] != text:
            return "text round trip is not the identity"
        return None

    def prods(self, item) -> int:
        return len(item[3])

    def known_defect(self, item) -> bool:
        # recovery recurses once per nesting level, so a document nested
        # deeper than the interpreter's recursion limit fails today
        return item[4] > 0

    def fingerprint(self) -> str:
        return _digest(item[1] for item in self.items)


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode("utf-8"))
    return h.hexdigest()


WORKLOADS = {cls.name: cls for cls in (CaseStudy, ConvergeLadder, NormalizeCorpus,
                                       IngestText)}
