"""Spans around gpq's public functions, recorded from outside the package.

``Tracer.install`` replaces every public function at every module attribute
that callers look it up through (``gpq.balls.free_reduce`` is a binding of its
own, apart from ``gpq.words.free_reduce``), and public methods on gpq's
classes, with a wrapper that records a span: function, parent span, start and
end.  ``Word`` construction is counted, not spanned.  Spans stay in memory
until ``write_spans``; ``summary`` derives per-function call counts,
inclusive and self time, plus the work counts the observers collect.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time
import types
from array import array
from collections import defaultdict

MODULES = ("words", "presentations", "parsing", "backends", "rewriting", "balls", "endo", "induction", "grigorchuk")
# Word and Alphabet are the data every layer passes around; their
# constructions are counted, and spanning their methods would only measure
# the tracer.
UNSPANNED_CLASSES = ("Word", "Alphabet")
ORACLE_KINDS = {
    "BaumslagSolitarOracle": "bs",
    "FreeAbelianOracle": "abelian",
    "FreeGroupOracle": "free",
    "FiniteGroupTable": "table",
}


def span_name(module, owner, attr):
    """Metric stem of a function: module.function, module.Class.method, with
    the oracle and Grigorchuk-data methods under their layer names."""
    if owner is None:
        return f"{module}.{attr}"
    if attr == "normal_form" and owner in ORACLE_KINDS:
        return f"backends.{ORACLE_KINDS[owner]}.normal_form"
    if attr == "is_identity":
        return "backends.is_identity"
    if owner == "GrigorchukData":
        return f"grigorchuk.{attr}"
    return f"{module}.{owner}.{attr}"


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # Arrays, not lists: the garbage collector does not traverse them, so
        # a million spans do not slow the traced pass's full collections.
        self.span_fn = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts = defaultdict(int)
        self.case_ms = defaultdict(list)
        self.word_n = 0
        self.max_len = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------------

    def install(self, g):
        wrapped = {}

        def wrap(fn, name):
            if fn not in wrapped:
                wrapped[fn] = self._wrapper(fn, name, OBSERVERS.get(name))
            return wrapped[fn]

        for mod_name in MODULES:
            mod = getattr(g, mod_name)
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(val, types.FunctionType) and val.__module__.startswith("gpq."):
                    home = val.__module__.split(".", 1)[1]
                    self._set(mod, attr, wrap(val, span_name(home, None, val.__name__)))
                elif inspect.isclass(val) and val.__module__ == mod.__name__ and attr not in UNSPANNED_CLASSES:
                    for meth, fn in list(vars(val).items()):
                        if not meth.startswith("_") and isinstance(fn, types.FunctionType):
                            self._set(val, meth, wrap(fn, span_name(mod_name, attr, meth)))
        for attr, val in list(vars(g.package).items()):
            if isinstance(val, types.FunctionType) and val in wrapped:
                self._set(g.package, attr, wrapped[val])
        self._count_words(g.words.Word)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _count_words(self, word_cls):
        original = word_cls.__post_init__
        tracer = self

        def __post_init__(word):
            original(word)
            if tracer.active:
                tracer.word_n += 1
                n = len(word.letters)
                if n > tracer.max_len:
                    tracer.max_len = n

        self._set(word_cls, "__post_init__", __post_init__)

    def _wrapper(self, fn, name, observe):
        fid = self._ids.setdefault(name, len(self.names))
        if fid == len(self.names):
            self.names.append(name)
        fns, parents, starts, ends = self.span_fn, self.span_parent, self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(fns)
            fns.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            starts.append(clock())
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                stack.pop()
                ends[sid] = clock()
                if observe:
                    observe(tracer, args, None, exc, ends[sid] - starts[sid])
                raise
            stack.pop()
            ends[sid] = clock()
            if observe:
                observe(tracer, args, result, None, ends[sid] - starts[sid])
            return result

        return wrapper

    def leave_out(self, seconds):
        """A pause of `seconds` (a host-speed probe) has just ended: move the
        start of every open span forward by it."""
        for sid in self._stack[1:]:
            self.span_start[sid] += seconds

    # -- results --------------------------------------------------------------------------

    def summary(self):
        """{name: (calls, inclusive s, self s)} over every recorded span."""
        n = len(self.span_fn)
        child = [0.0] * n
        durations = [e - s for s, e in zip(self.span_start, self.span_end)]
        for sid in range(n):
            parent = self.span_parent[sid]
            if parent >= 0:
                child[parent] += durations[sid]
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        for sid in range(n):
            name = self.names[self.span_fn[sid]]
            calls[name] += 1
            incl[name] += durations[sid]
            self_s[name] += durations[sid] - child[sid]
        return {name: (calls[name], incl[name], self_s[name]) for name in calls}

    def write_spans(self, path):
        """Gzipped, one line per span: id, parent id, function, start and end
        in seconds from the first span."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid, (fid, parent, s, e) in enumerate(
                zip(self.span_fn, self.span_parent, self.span_start, self.span_end)
            ):
                fh.write(f"{sid}\t{parent}\t{self.names[fid]}\t{s - t0:.9f}\t{e - t0:.9f}\n")


# --- observers: work counts read off arguments and results ----------------------------


def _ball(tracer, args, result, exc, dt):
    if result is None:
        return
    c = tracer.counts
    v = len(result.vertices)
    c["balls.vertices.n"] += v
    c["balls.edges.n"] += len(result.edges)
    c["balls.cells.n"] += len(result.cells)
    invol = result.presentation.alphabet.involutive
    c["balls.vertex_dirs"] += v * sum(1 if i else 2 for i in invol)


def _search(tracer, args, result, exc, dt):
    c = tracer.counts
    if result is not None:
        c["balls.states_explored.n"] += result.states_explored
        c["balls.witnesses"] += 1
    elif getattr(exc, "states_explored", None) is not None:
        c["balls.states_explored.n"] += exc.states_explored


def _normal_form(tracer, args, result, exc, dt):
    if result is not None:
        tracer.counts["backends.normal_form.letters_out"] += len(result)


def _reduce(tracer, args, result, exc, dt):
    trace = result[1] if result is not None else getattr(exc, "trace", None)
    if trace is not None:
        tracer.counts["rewriting.steps.n"] += len(trace.steps)


def _words_checked(tracer, args, result, exc, dt):
    tracer.counts["rewriting.words_checked.n"] += getattr(result, "words_checked", 0)


def _free_reduce(tracer, args, result, exc, dt):
    tracer.counts["words.free_reduce.letters"] += len(args[0])


def _apply_substitution(tracer, args, result, exc, dt):
    if result is not None:
        tracer.counts["words.apply_substitution.letters"] += len(result)


def _case(tracer, args, result, exc, dt):
    if len(args) > 1:
        tracer.case_ms[args[1]].append(dt * 1000.0)


def _decode(tracer, args, result, exc, dt):
    tracer.counts["endo.sigma_decode.letters"] += len(args[1])


def _pinch(tracer, args, result, exc, dt):
    steps = result[1] if result is not None else getattr(exc, "trace", None)
    tracer.counts["endo.pinch_steps.n"] += len(steps or ())


OBSERVERS = {
    "balls.build_ball": _ball,
    "balls.build_sphere": _ball,
    "balls.null_homotopy_search": _search,
    "backends.bs.normal_form": _normal_form,
    "backends.abelian.normal_form": _normal_form,
    "backends.free.normal_form": _normal_form,
    "backends.table.normal_form": _normal_form,
    "rewriting.reduce": _reduce,
    "rewriting.ball_null_homotopy_witness": _words_checked,
    "words.free_reduce": _free_reduce,
    "words.apply_substitution": _apply_substitution,
    "grigorchuk.verify_sigma_identity": _case,
    "endo.sigma_decode": _decode,
    "endo.britton_pinch_reduce": _pinch,
}
