"""Spans around the calls into gramconv's public module functions.

The tracer replaces each traced function, in every gramconv module that
binds it, by a wrapper that records a span: layer name, start, end, parent
span and operation id.  Calls the package makes internally go through the
same module attributes, so a span's children are the traced calls made
while it was open, and its self time is its duration minus theirs.  Nothing
in the package itself changes; `uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

TRACED = (
    ("cli", "main"),
    ("recovery", "recover"),
    ("recovery", "unparse"),
    ("interchange", "serialize"),
    ("interchange", "deserialize"),
    ("notation", "parse_spec"),
    ("mutate", "mutate"),
    ("mutate", "anf_check"),
    ("transform", "apply_script"),
    ("converge", "guided_converge"),
    ("converge", "nominal_resolution"),
    ("converge", "structural_match"),
    ("converge", "report_to_json"),
    ("converge", "render_match_report"),
)


def _kb(text: str) -> float:
    return len(text.encode("utf-8")) / 1000


def _layer(name: str, args, kwargs) -> str:
    if name == "mutate.mutate":
        return "mutate." + (args[1] if len(args) > 1 else kwargs["m"]).kind
    if name in ("converge.report_to_json", "converge.render_match_report"):
        return "converge.report"
    return name


def _counts(name: str, args, result, error) -> dict:
    """Work done by one call, as counts taken at the boundary."""
    if name == "converge.nominal_resolution":
        if error is not None:
            return {"ambiguous": int(type(error).__name__ == "ResolutionAmbiguity")}
        return {"omega": sum(1 for a, b in result.pairs if a is None or b is None)}
    if name == "converge.structural_match" and error is None:
        return {"pairs": len(result.pairs), "residue": len(result.residue)}
    if name == "mutate.mutate" and error is None:
        return {"steps": len(result.trace), "prods_out": len(result.grammar.productions)}
    if name == "transform.apply_script":
        return {"steps": len(args[1])}
    if name in ("recovery.recover", "interchange.deserialize"):
        return {"kb": _kb(args[0])}
    if name == "recovery.unparse" and error is None:
        return {"kb_out": _kb(result)}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.op = None
        self.spans: list[list] = []  # [layer, start, end, parent, op]
        self.layers: dict[str, dict] = {}  # per pass: layer -> totals
        self._open: list[list] = []  # [span index, time covered by children]
        self._patched: list[tuple] = []
        self._origin = time.perf_counter()

    def install(self) -> None:
        modules = [module for name, module in sorted(sys.modules.items())
                   if name == "gramconv" or name.startswith("gramconv.")]
        for module_name, function_name in TRACED:
            original = getattr(sys.modules[f"gramconv.{module_name}"], function_name)
            wrapper = self._wrap(f"{module_name}.{function_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def begin_pass(self) -> None:
        self.layers = {}

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            layer = _layer(name, args, kwargs)
            parent = tracer._open[-1][0] if tracer._open else -1
            index = len(tracer.spans)
            span = [layer, 0.0, 0.0, parent, tracer.op]
            tracer.spans.append(span)
            tracer._open.append([index, 0.0])
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                _, covered = tracer._open.pop()
                duration = end - start
                if tracer._open:
                    tracer._open[-1][1] += duration
                span[1], span[2] = start - tracer._origin, end - tracer._origin
                totals = tracer.layers.setdefault(layer, {"calls": 0, "self_s": 0.0})
                totals["calls"] += 1
                totals["self_s"] += duration - covered
                for key, value in _counts(name, args, result, error).items():
                    totals[key] = totals.get(key, 0) + value

        return traced


# (metric, unit, layer, field): a field named *_s is a median of per-pass
# seconds; a (numerator, seconds) pair is a median of per-pass rates; any
# other field is a per-pass count that must repeat exactly on every pass
PER_LAYER = (
    ("converge.nominal_resolution.calls", "count", "converge.nominal_resolution", "calls"),
    ("converge.nominal_resolution.s", "s", "converge.nominal_resolution", "self_s"),
    ("converge.nominal_resolution.ambiguous", "count", "converge.nominal_resolution", "ambiguous"),
    ("converge.nominal_resolution.omega", "count", "converge.nominal_resolution", "omega"),
    ("converge.structural_match.s", "s", "converge.structural_match", "self_s"),
    ("converge.structural_match.pairs", "count", "converge.structural_match", "pairs"),
    ("converge.structural_match.residue", "count", "converge.structural_match", "residue"),
    ("converge.guided_converge.self_s", "s", "converge.guided_converge", "self_s"),
    ("converge.report.s", "s", "converge.report", "self_s"),
    ("mutate.normalize-anf.s", "s", "mutate.normalize-anf", "self_s"),
    ("mutate.normalize-anf.steps", "count", "mutate.normalize-anf", "steps"),
    ("mutate.normalize-anf.prods_out", "count", "mutate.normalize-anf", "prods_out"),
    ("mutate.deyaccify-all.s", "s", "mutate.deyaccify-all", "self_s"),
    ("mutate.deyaccify-all.steps", "count", "mutate.deyaccify-all", "steps"),
    ("mutate.anf_check.s", "s", "mutate.anf_check", "self_s"),
    ("transform.apply_script.s", "s", "transform.apply_script", "self_s"),
    ("transform.apply_script.steps", "count", "transform.apply_script", "steps"),
    ("transform.apply_script.steps_per_s", "1/s", "transform.apply_script", ("steps", "self_s")),
    ("recovery.recover.calls", "count", "recovery.recover", "calls"),
    ("recovery.recover.s", "s", "recovery.recover", "self_s"),
    ("recovery.recover.kb_per_s", "kB/s", "recovery.recover", ("kb", "self_s")),
    ("recovery.unparse.s", "s", "recovery.unparse", "self_s"),
    ("recovery.unparse.kb_out", "kB", "recovery.unparse", "kb_out"),
    ("interchange.deserialize.s", "s", "interchange.deserialize", "self_s"),
    ("interchange.deserialize.kb_per_s", "kB/s", "interchange.deserialize", ("kb", "self_s")),
    ("interchange.serialize.s", "s", "interchange.serialize", "self_s"),
    ("notation.parse_spec.s", "s", "notation.parse_spec", "self_s"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
)


def layer_metrics(passes: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics over the traced passes' layer totals, and the names
    of the counts that did not repeat exactly across passes."""
    metrics, unstable = {}, []
    for metric, unit, layer, field in PER_LAYER:
        per_pass = [totals.get(layer, {}) for totals in passes]
        if isinstance(field, tuple):
            top, seconds = field
            values = [t.get(top, 0) / t[seconds] if t.get(seconds) else 0.0
                      for t in per_pass]
            value = statistics.median(values)
        elif field.endswith("_s"):
            value = statistics.median([t.get(field, 0.0) for t in per_pass])
        else:
            values = [t.get(field, 0) for t in per_pass]
            if len(set(values)) > 1:
                unstable.append(metric)
            value = values[0]
        metrics[metric] = {"value": value, "unit": unit}
    return metrics, unstable
