"""gpq's value classes against dataclasses, and no generated code at import.

Every immutable value class is declared with ``gpq.words.frozen``.  For each
one a ``make_dataclass(..., frozen=True)`` twin with the same fields, flags
and other attributes is built, and on seeded instances of the class, found
in the results of a few runs of the public API, the two must agree on
equality, hash, repr, ``fields``, ``replace``, ``__match_args__``,
``inspect.signature`` and the errors of construction, assignment and
deletion.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import random
from dataclasses import FrozenInstanceError, dataclass, field, fields, is_dataclass, make_dataclass, replace

import pytest

import gpq
from gpq.backends import bs_oracle, dihedral_group, free_abelian_oracle, free_oracle
from gpq.balls import build_ball, geodesic_0_combing, null_homotopy_search, pi1_generators
from gpq.endo import EndomorphicPresentation, britton_pinch_reduce, sigma_decode
from gpq.grigorchuk import VerificationSummary, make_grigorchuk_data, run_full_verification
from gpq.induction import basic_relation, induce_presentation
from gpq.parsing import Document
from gpq.presentations import T1, T3, FiniteEquivalenceTrace, Presentation, apply_move
from gpq.rewriting import (
    RewritingSystem,
    ball_null_homotopy_witness,
    certify_local_confluence,
    critical_pairs,
    dihedral_rewriting_system,
    reduce,
)
from gpq.words import Word, apply_substitution, free_reduce, frozen

MODULES = [importlib.import_module(f"gpq.{m.name}") for m in pkgutil.iter_modules(gpq.__path__)]
CLASSES = [
    cls
    for mod in MODULES
    for cls in vars(mod).values()
    if isinstance(cls, type) and cls.__module__ == mod.__name__
]
MUTABLE = (Document, FiniteEquivalenceTrace)  # records that change after construction
VALUES = [cls for cls in CLASSES if is_dataclass(cls) and cls not in MUTABLE]


@frozen
class _Probe:
    """A class whose every method `frozen` installs."""

    x: int


# what `frozen` installs: one code object per method, shared by every class
INSTALLED = {name: getattr(_Probe, name).__code__ for name in ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__")}
BOOKKEEPING = {"__dict__", "__weakref__", "__doc__", "__annotations__", "__dataclass_fields__", "__dataclass_params__", "__match_args__"}


def _installed(cls, name) -> bool:
    return name in INSTALLED and getattr(cls.__dict__.get(name), "__code__", None) is INSTALLED[name]


def _twin(cls):
    """The class that ``@dataclass(frozen=True)`` makes of `cls`'s fields,
    with every attribute of `cls` that `frozen` did not install."""
    spec = [(f.name, f.type, field(default=f.default, repr=f.repr, hash=f.hash, compare=f.compare)) for f in fields(cls)]
    skip = BOOKKEEPING | {f.name for f in fields(cls)}
    namespace = {k: v for k, v in vars(cls).items() if k not in skip and not _installed(cls, k)}
    return make_dataclass(cls.__name__, spec, bases=cls.__bases__, namespace=namespace, frozen=True)


def _values(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _outcome(call, *args, **kwargs):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def _roots(rng: random.Random) -> list:
    """Results of seeded runs of the public API, among them an instance of
    every value class."""
    data = make_grigorchuk_data()
    reports, summary = run_full_verification(data, 1)
    relator = data.b_extension.presentation.relators[-1]
    roots = [data, reports[:3], summary, induce_presentation(data.b_extension), basic_relation(relator, data.b_extension)]

    z2 = Presentation.make("a, b", ["a b a' b'"], "z2")
    region = build_ball(free_abelian_oracle(2, z2.alphabet), z2, 2)
    commutator = Word.from_str(z2.alphabet, "a b a' b'")
    roots += [region, pi1_generators(region), geodesic_0_combing(free_abelian_oracle(2, z2.alphabet), z2, 1)]
    roots += [null_homotopy_search(region.oracle, z2, commutator, region), free_oracle(2), bs_oracle(1, 2)]

    lysenok = EndomorphicPresentation(
        data.acd, (), (data.sigma_acd,), (Word.from_str(data.acd, "(a d)^4"),), ("t",), "lysenok"
    )
    combined = lysenok.combined_alphabet()
    source = Word(data.acd, tuple((rng.randrange(3), 1) for _ in range(8)))
    image = apply_substitution(data.sigma_acd, source)
    roots += [lysenok, britton_pinch_reduce(lysenok, Word.from_str(combined, "t' a c a t"))]
    roots += [sigma_decode(data.sigma_acd, image, with_flags=True)]

    q, t2 = apply_move(z2, T1("u", Word.from_str(z2.alphabet, "a b")))
    cert = ((Word.from_str(q.alphabet, "a"), 0, 1),)
    conjugate = free_reduce(Word.from_str(q.alphabet, "a") * q.relators[0] * Word.from_str(q.alphabet, "a'"))
    r, t4 = apply_move(q, T3(conjugate, cert))
    roots += [t2, t4, apply_move(q, t2), apply_move(r, t4)]  # the last two give T1 and T3

    d8 = Presentation.make("a!, d!", ["a a", "d d", "(a d)^4"], "d8")
    rs = dihedral_rewriting_system(8)
    letters = tuple((rng.randrange(2), 1) for _ in range(12))
    roots += [rs, reduce(rs, Word(rs.alphabet, letters)), critical_pairs(rs), certify_local_confluence(rs)]
    roots += [ball_null_homotopy_witness(rs, d8, 1), dihedral_group(8, ("a", "d"))]
    roots += [certify_local_confluence(RewritingSystem.make("a, b", [("a b", "a"), ("a b", "b")]))]
    roots += [certify_local_confluence(RewritingSystem.make("a", [("a", "a a")]))]
    return roots


@pytest.fixture(scope="module")
def instances() -> dict:
    """Up to four instances of each value class, found by walking the
    fields, tuples, lists and dicts of seeded results."""
    found = {cls: [] for cls in VALUES}
    seen = set()
    roots = _roots(random.Random(37))  # they keep every object seen alive, and its id unique
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (int, str, type(None))):
            continue
        seen.add(id(obj))
        if type(obj) in found:
            if len(found[type(obj)]) < 4:
                found[type(obj)].append(obj)
            stack += _values(obj).values()
        elif isinstance(obj, (tuple, list)):
            stack += obj[:8]
        elif isinstance(obj, dict):
            stack += [*obj, *obj.values()]
    return found


def test_every_value_class_is_frozen():
    assert len(VALUES) >= 34
    for cls in VALUES:
        assert _installed(cls, "__setattr__"), f"{cls.__qualname__} is a dataclass not declared with words.frozen"


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__qualname__)
def test_frozen_class_matches_its_dataclass_twin(cls, instances):
    objs = instances[cls]
    assert objs, f"no seeded {cls.__qualname__}"
    twin = _twin(cls)
    twins = [twin(**_values(obj)) for obj in objs]
    assert inspect.signature(cls) == inspect.signature(twin)
    assert cls.__match_args__ == twin.__match_args__
    flags = lambda c: [(f.name, f.type, f.default, f.init, f.repr, f.hash, f.compare) for f in fields(c)]
    assert flags(cls) == flags(twin)
    names = [f.name for f in fields(cls)]
    for obj, twin_obj in zip(objs, twins):
        assert repr(obj) == repr(twin_obj)
        assert _outcome(hash, obj) == _outcome(hash, twin_obj)
        assert cls(**_values(obj)) == obj and twin(**_values(obj)) == twin_obj
        assert obj.__eq__(twin_obj) is NotImplemented and (obj == 0) is (twin_obj == 0) is False
        for other, twin_other in zip(objs, twins):
            assert (obj == other) is (twin_obj == twin_other)
            assert (obj != other) is (twin_obj != twin_other)
        # replace: each field in turn takes the value of the last instance's
        for name in names:

            def replaced(o):
                new = replace(o, **{name: getattr(objs[-1], name)})
                return _values(new), new == o, _outcome(hash, new) == _outcome(hash, o)

            assert _outcome(replaced, obj) == _outcome(replaced, twin_obj)
        assert _outcome(replace, obj, bogus=1) == _outcome(replace, twin_obj, bogus=1)
        for name in (names[0], names[-1], "bogus"):
            assert _outcome(setattr, obj, name, 1) == _outcome(setattr, twin_obj, name, 1)
            assert _outcome(delattr, obj, name) == _outcome(delattr, twin_obj, name)
        assert _outcome(setattr, obj, "bogus", 1)[0] is FrozenInstanceError
    args = list(_values(objs[0]).values())
    for call_args, call_kwargs in [
        ((), {}),
        (args + [None], {}),
        (args, {"bogus": 1}),
        (args, {names[0]: args[0]}),
        ((), dict(zip(names[1:], args[1:]))),
    ]:
        raised = _outcome(cls, *call_args, **call_kwargs)
        assert raised == _outcome(twin, *call_args, **call_kwargs)
        assert raised[0] is TypeError


def test_a_recursive_repr_reads_as_dataclass_writes_it():
    reprs = []
    for cls in (VerificationSummary, _twin(VerificationSummary)):
        summary = cls(1, 1, {}, ())
        summary.by_level["again"] = summary
        reprs.append(repr(summary))
    assert reprs[0] == reprs[1] == "VerificationSummary(total=1, equal=1, by_level={'again': ...}, skipped=())"


def _noted(base):
    class Noted(base):
        def __post_init__(self):
            super().__post_init__()
            self.note = len(self.relators)

    return Noted


def test_an_undecorated_subclass_runs_its_post_init_and_sets_other_attributes():
    p = Presentation.make("a, b", ["a b a' b'", "a a"], "p")
    seen = []
    for base in (Presentation, _twin(Presentation)):
        noted_class = _noted(base)
        noted = noted_class(p.alphabet, p.relators, "noted")
        again = noted_class(p.alphabet, p.relators, "noted")
        seen.append(
            {
                "note": noted.note,
                "repr": repr(noted),
                "equal": (noted == again, noted == p, hash(noted) == hash(again)),
                "set field": _outcome(setattr, noted, "relators", ()),
                "delete field": _outcome(delattr, noted, "name"),
                "set other": (_outcome(setattr, noted, "note", 3), noted.note),
                "delete other": (_outcome(delattr, noted, "note"), hasattr(noted, "note")),
                "missing argument": _outcome(noted_class, p.alphabet),
            }
        )
    assert seen[0] == seen[1]
    assert seen[0]["note"] == 2 and seen[0]["equal"] == (True, False, True)
    assert seen[0]["set other"] == (None, 3) and seen[0]["delete other"] == (None, False)
    assert seen[0]["set field"][0] is FrozenInstanceError


def _shape(namespace):
    """A fresh undecorated class with one int field `x` and `namespace`."""
    return type("K", (), {"__annotations__": {"x": "int"}, "__doc__": "d", **namespace})


def test_methods_the_class_body_defines_are_kept_as_dataclass_keeps_them():
    def eq(self, other):
        return True

    def seven(self):
        return 7

    for namespace in ({"__eq__": eq}, {"__hash__": seven}, {"__eq__": eq, "__hash__": seven}, {"__hash__": None}):
        seen = []
        for decorate in (frozen, dataclass(frozen=True)):
            cls = decorate(_shape(namespace))
            seen.append((_outcome(hash, cls(1)), cls(1) == cls(2), repr(cls(1))))
        assert seen[0] == seen[1], namespace
    for name in ("__setattr__", "__delattr__"):
        raised = [_outcome(decorate, _shape({name: eq})) for decorate in (frozen, dataclass(frozen=True))]
        assert raised[0] == raised[1] and raised[0][0] is TypeError


def test_an_undocumented_class_gets_the_docstring_dataclass_writes():
    plain = lambda: type("Plain", (), {"__annotations__": {"x": "int", "y": "str"}, "y": "a"})
    assert frozen(plain()).__doc__ == dataclass(frozen=True)(plain()).__doc__ == "Plain(x: 'int', y: 'str' = 'a')"


@pytest.mark.parametrize("spec", [field(default_factory=list), field(init=False), field(default=0, kw_only=True)])
def test_frozen_refuses_a_field_it_does_not_build(spec):
    with pytest.raises(TypeError, match="plain default at most"):
        frozen(_shape({"x": spec}))


def test_frozen_refuses_a_required_field_after_a_defaulted_one_as_dataclass_does():
    late = lambda: type("Late", (), {"__annotations__": {"x": "int", "y": "int"}, "x": 0})
    raised = [_outcome(decorate, late()) for decorate in (frozen, dataclass(frozen=True))]
    assert raised[0] == raised[1] == (TypeError, "non-default argument 'y' follows default argument")


def test_no_gpq_class_runs_exec_generated_methods():
    """``@dataclass(frozen=True)`` writes six methods per class as source and
    compiles them, at every import of gpq; their code's file is "<string>".
    The two mutable records keep ``@dataclass``, and a NamedTuple its one
    evaluated ``__new__``."""
    generated = []
    for cls in CLASSES:
        if cls in MUTABLE or issubclass(cls, tuple):
            continue
        for name, value in vars(cls).items():
            code = getattr(getattr(value, "__func__", value), "__code__", None)
            if code is not None and code.co_filename == "<string>":
                generated.append(f"{cls.__module__}.{cls.__qualname__}.{name}")
    assert not generated, (
        f"generated code in {generated}: declare an immutable value class "
        "with gpq.words.frozen, not @dataclass(frozen=True)"
    )
