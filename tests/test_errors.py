"""Every DistSetError against tests/errors_reference.py, and through pickle and copy."""

import copy
import inspect
import pickle
import sys
from fractions import Fraction

import pytest

import errors_reference as reference
from distset.errors import BudgetTooSmall, DistSetError
from distset.urysohn import urysohn_stage

F = Fraction


def _stalled_stage():
    with pytest.raises(BudgetTooSmall) as exc:
        urysohn_stage({F(0), F(1), F(2)}, 5, 3, 2, strict=True)
    return exc.value.result


# constructor arguments per class; distinct values, so a swapped field shows
SAMPLES = {
    "DistSetError": ("any message",),
    "AsymmetricMatrix": (1, 2),
    "NonzeroDiagonal": (3,),
    "NonpositiveOffDiagonal": (1, 4),
    "TriangleViolation": (0, 3, 5),
    "EmptySelection": (),
    "IndexOutOfRange": (7, 5),
    "InvalidDescription": ("closed interval needs lo <= hi",),
    "UnsupportedDescription": ("unsupported component: 'x'",),
    "NotRealizable": (),
    "NonpositiveGlueDistance": (),
    "InvalidTreeData": ("tree must contain the root",),
    "BadDistancePair": ("rp = 3 exceeds 2r = 2",),
    "GuardrailExceeded": (13, 12),
    "ZeroNotInDomain": (),
    "PoolExhausted": (F(3, 2),),
    "SpectrumNotInA": (F(5, 2),),
    "InvariantViolation": ("no point over A realizes g = (1, 2) on (0, 1)",),
    "FourValuesFails": ((F(1), F(1), F(2), F(4), F(2)),),
    "BudgetTooSmall": (_stalled_stage(),),
}


def _classes(cls=DistSetError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _classes(sub)


CLASSES = {cls.__name__: cls for cls in _classes()}


def _fields(cls):
    """A templated class's field names, or None for a class that takes a message."""
    return list(inspect.signature(cls).parameters) if cls.template else None


def _reference_fields(cls):
    """The parameters of the class's own __init__, or None for a message class."""
    own = next(c.__init__ for c in cls.__mro__ if "__init__" in vars(c))
    return None if own is Exception.__init__ else list(inspect.signature(own).parameters)[1:]


def _same(a, b):
    assert type(a) is type(b)
    assert (a.args, str(a), repr(a), vars(a)) == (b.args, str(b), repr(b), vars(b))


def test_every_class_has_a_sample_and_a_reference():
    assert sorted(CLASSES) == sorted(SAMPLES)
    assert all(issubclass(getattr(reference, name), reference.DistSetError) for name in CLASSES)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_error_matches_the_reference(name):
    cls, ref_cls, args = CLASSES[name], getattr(reference, name), SAMPLES[name]
    error, ref = cls(*args), ref_cls(*args)
    assert (error.args, str(error), repr(error)) == (ref.args, str(ref), repr(ref))
    fields = _fields(cls)
    assert fields == _reference_fields(ref_cls)
    if fields is None:
        assert vars(error) == vars(ref) == {}
        return
    assert vars(error) == dict(zip(fields, args))
    assert vars(ref).items() <= vars(error).items()
    assert set(vars(error)) - set(vars(ref)) == ({"reason"} if name == "BadDistancePair" else set())
    _same(cls(**dict(zip(fields, args))), error)
    for wrong in (args + (0,), args[:-1]) if args else (args + (0,),):
        with pytest.raises(TypeError):
            ref_cls(*wrong)
        with pytest.raises(TypeError):
            cls(*wrong)


ROUND_TRIPS = {
    "pickle": lambda error: pickle.loads(pickle.dumps(error)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_error_survives_pickle_and_copy(name, how):
    error = CLASSES[name](*SAMPLES[name])
    _same(ROUND_TRIPS[how](error), error)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="BaseException.add_note is new in 3.11")
@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_error_keeps_its_notes(name, how):
    error = CLASSES[name](*SAMPLES[name])
    error.add_note("while reading stage.json")
    again = ROUND_TRIPS[how](error)
    _same(again, error)
    assert again.__notes__ == ["while reading stage.json"]

