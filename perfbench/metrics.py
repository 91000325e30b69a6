"""Per-layer metrics from a traced pass, and which end-to-end number each
one should move.

BENCHMARK.json holds the metrics' names and units.  Per-layer ``.s`` is self
time (span time minus the time of the spans it called), ``.calls`` a call
count, ``.n`` a work count; rates divide work by the inclusive time of the
function doing it.
"""

from __future__ import annotations

_WORDS = "wall_s on all four workloads; a change to words must slow none of them"
_BACKENDS = "wall_s, op_p90_ms on ball-build and on null-homotopy (region builds); no change elsewhere"
_BUILD = "wall_s, op_p90_ms on ball-build"
_SEARCH = "wall_s, op_p90_ms, decided_ratio on null-homotopy"
_REWRITING = "op_p50_ms on null-homotopy"
_GRID = "wall_s, peak_rss_mb on grigorchuk-verify; no change elsewhere"
_CALCULUS = "wall_s, op_p90_ms on presentation-calculus"

# (name prefix, what a change there should move); the first match wins.
EFFECTS = (
    ("words.", _WORDS),
    ("backends.", _BACKENDS),
    ("balls.null_homotopy_search.", _SEARCH),
    ("balls.pi1_kill_radius.", _SEARCH),
    ("balls.states_", _SEARCH),
    ("balls.self_s", _BUILD + "; " + _SEARCH),
    ("balls.", _BUILD),
    ("rewriting.", _REWRITING),
    ("grigorchuk.", _GRID),
    ("induction.", _GRID),
    ("presentations.", _CALCULUS),
    ("endo.", _CALCULUS),
    ("parsing.", _CALCULUS),
    ("trace.", "none: the cost of tracing itself, per workload"),
)


def effect(name):
    return next(e for prefix, e in EFFECTS if name.startswith(prefix))


LAYERS = ("words", "backends", "balls", "rewriting", "grigorchuk", "induction", "presentations", "endo", "parsing")


def _div(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, names, user_moves, wall_traced, wall_untraced):
    """Every named per-layer metric from one traced pass."""
    spans = tracer.summary()
    counts = tracer.counts

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def incl(*fns):
        return sum(spans.get(n, (0, 0.0, 0.0))[1] for n in fns)

    out = {}
    for name in names:
        stem, _, quantity = name.rpartition(".")
        if quantity == "calls":
            out[name] = calls(stem)
        elif quantity == "s" and stem in spans:
            out[name] = spans[stem][2]
        elif name in counts:
            out[name] = counts[name]
        else:
            out[name] = 0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(s for n, (_, _, s) in spans.items() if n.startswith(layer + "."))
    out["words.Word.n"] = tracer.word_n
    out["words.max_len"] = tracer.max_len
    nf_calls = sum(calls(f"backends.{k}.normal_form") for k in ("bs", "abelian", "free", "table"))
    out["backends.calls_per_vertex_dir"] = _div(nf_calls, counts["balls.vertex_dirs"])
    out["balls.vertices_per_s"] = _div(counts["balls.vertices.n"], incl("balls.build_ball", "balls.build_sphere"))
    out["balls.states_per_s"] = _div(counts["balls.states_explored.n"], incl("balls.null_homotopy_search"))
    out["balls.states_per_witness"] = _div(counts["balls.states_explored.n"], counts["balls.witnesses"])
    out["rewriting.steps_per_s"] = _div(counts["rewriting.steps.n"], incl("rewriting.reduce"))
    for n in (4, 8):
        cases = tracer.case_ms.get(n, ())
        out[f"grigorchuk.case_ms.n{n}"] = _div(sum(cases), len(cases))
    out["presentations.apply_move_per_move"] = _div(calls("presentations.apply_move"), user_moves)
    out["endo.sigma_decode.letters_per_s"] = _div(counts["endo.sigma_decode.letters"], incl("endo.sigma_decode"))
    out["trace.overhead_ratio"] = _div(wall_traced, wall_untraced)
    return out


def repeat_counts(values):
    """The counts that must repeat exactly between two runs on one seed."""
    return {k: v for k, v in values.items() if k.endswith((".n", ".calls"))}
