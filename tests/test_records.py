"""relaysim.records against the standard library's frozen dataclasses as the oracle.

Every record class of the package gets a `dataclasses.make_dataclass(...,
frozen=True)` twin built from the class's own annotations and defaults; a
record and its twin holding the same field values must agree on repr,
equality, hash and fields.
"""

import dataclasses
import importlib
import math

import pytest

from relaysim.components import ChipLayout, DEFAULT_SEGMENTS, calibrate_coupler
from relaysim.config import load_preset
from relaysim.interference import dip_profile
from relaysim.linkbudget import link_rates, max_distance
from relaysim.montecarlo import compile_scenario, expected_rates, run, scan_dip, subtract_accidentals
from relaysim.photostats import thermal
from relaysim.records import FrozenInstanceError, field, fields, record, replace
from relaysim.units import SpectralMode

MODULES = ("units", "photostats", "components", "config", "interference", "montecarlo", "linkbudget")


def _record_classes() -> dict:
    classes = {}
    for name in MODULES:
        module = importlib.import_module(f"relaysim.{name}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                if "__record_fields__" in vars(value):
                    classes[value.__qualname__] = value
    return classes


def _samples() -> dict:
    """One instance of every record class, each built by the code that builds it in use."""
    config = load_preset("paper-fig6")
    scenario = config.to_scenario()
    report = run(scenario, 10**6, seed=1)
    link = config.to_link_params()
    built = [
        config,
        scenario,
        scenario.chip_source,
        scenario.photon_mode,
        scenario.coupler_c1,
        scenario.layout,
        scenario.filter_c,
        scenario.detector_a,
        calibrate_coupler(config.coupler_c1_anchors),
        thermal(0.05),
        compile_scenario(scenario),
        expected_rates(scenario),
        report,
        report.dip,
        report.ledger,
        subtract_accidentals(report),
        scan_dip(scenario, [-9.0 + 1.5 * i for i in range(13)], 0),
        dip_profile(0.5, 17.0, 1.0, [-1.0, 0.0, 1.0]),
        link,
        link_rates("standard_relay", link, 100.0),
        max_distance("standard_relay", link),
    ]
    samples = {type(x).__qualname__: x for x in built}
    samples["DipFit"] = samples["DipScanResult"].fit
    return samples


SAMPLES = _samples()
CLASSES = _record_classes()


def _twin(cls):
    """A frozen dataclass with the record's annotations and defaults, in class order."""
    specs = []
    for f in fields(cls):
        if f.default_factory is not None:
            default = dataclasses.field(default_factory=f.default_factory)
        elif f.name in vars(cls):
            default = dataclasses.field(default=vars(cls)[f.name])
        else:
            default = dataclasses.field()
        specs.append((f.name, cls.__annotations__[f.name], default))
    return dataclasses.make_dataclass(cls.__qualname__, specs, frozen=True)


def _values(x) -> list:
    return [getattr(x, f.name) for f in fields(x)]


def test_every_record_class_has_a_sample():
    assert len(CLASSES) == 22
    assert sorted(SAMPLES) == sorted(CLASSES)
    for name, x in SAMPLES.items():
        assert type(x) is CLASSES[name]


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_record_matches_frozen_dataclass(name):
    cls, x = CLASSES[name], SAMPLES[name]
    twin = _twin(cls)
    y = twin(*_values(x))

    assert [(f.name, f.type) for f in fields(cls)] == [
        (f.name, f.type) for f in dataclasses.fields(twin)
    ]
    assert list(cls.__annotations__) == [f.name for f in fields(x)]
    assert repr(x) == repr(y)

    same = cls(**{f.name: getattr(x, f.name) for f in fields(x)})
    assert same == x and not same != x
    assert (y == twin(*_values(x))) is True
    assert (x == y) is False and x != y  # another class, the same values
    assert replace(x) == x and replace(x) is not x
    assert dataclasses.replace(y) == y

    try:
        expected = hash(y)
    except TypeError:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == expected == hash(same)

    # Defaults: only the fields without a default, by position.
    required = [getattr(x, f.name) for f in dataclasses.fields(twin)
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    assert repr(cls(*required)) == repr(twin(*required))


def test_records_compare_on_field_values():
    assert SpectralMode(1530.0, 200.0) == SpectralMode(1530.0, 200.0, "gaussian")
    assert SpectralMode(1530.0, 200.0) != SpectralMode(1530.0, 100.0)
    assert hash(SpectralMode(1530.0, 200.0)) == hash(SpectralMode(1530.0, 200.0))
    wide, narrow = SpectralMode(1530.0, 200.0), SpectralMode(1530.0, 100.0)
    assert {wide, SpectralMode(1530.0, 200.0), narrow} == {wide, narrow}


def test_replace_reruns_post_init():
    mode = SpectralMode(1530.0, 200.0)
    with pytest.raises(ValueError, match="FWHM bandwidth"):
        replace(mode, fwhm_pm=-1.0)
    assert replace(mode, fwhm_pm=100.0) == SpectralMode(1530.0, 100.0)
    with pytest.raises(TypeError, match="unexpected keyword argument 'width'"):
        replace(mode, width=1.0)


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_records_are_immutable(name):
    x = SAMPLES[name]
    first = fields(x)[0].name
    with pytest.raises(FrozenInstanceError):
        setattr(x, first, None)
    with pytest.raises(AttributeError):
        delattr(x, first)
    with pytest.raises(AttributeError):
        x.not_a_field = 1.0
    assert issubclass(FrozenInstanceError, AttributeError)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: SpectralMode(1530.0), r"missing required argument: 'fwhm_pm'"),
        (lambda: SpectralMode(fwhm_pm=1.0), r"missing required argument: 'center_wavelength_nm'"),
        (lambda: SpectralMode(1530.0, 200.0, "gaussian", 1.0), r"takes 4 positional arguments but 5"),
        (lambda: SpectralMode(1530.0, 200.0, width=1.0), r"unexpected keyword argument 'width'"),
        (lambda: SpectralMode(1530.0, 200.0, fwhm_pm=1.0), r"multiple values for argument 'fwhm_pm'"),
        (
            lambda: SpectralMode(1530.0, 200.0, "gaussian", lineshape="gaussian"),
            r"multiple values for argument 'lineshape'",
        ),
    ],
    ids=["missing", "missing-first", "too-many", "unknown-keyword", "duplicate", "duplicate-all"],
)
def test_bad_arguments_raise_type_error(call, message):
    with pytest.raises(TypeError, match=message):
        call()


def test_default_factory_runs_per_instance():
    a, b = ChipLayout(), ChipLayout()
    assert a.segments == b.segments == DEFAULT_SEGMENTS
    assert a.segments is not b.segments
    assert a.segments is not DEFAULT_SEGMENTS
    assert "segments" not in vars(ChipLayout)  # the field() marker is not left on the class


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_default_factory_only_for_unhashable_defaults(name):
    # Records are immutable, so instances can share a default; only a
    # default that can change (it holds a dict) is built per instance.
    cls = CLASSES[name]
    for f in fields(cls):
        if f.default_factory is not None:
            with pytest.raises(TypeError):
                hash(f.default_factory())
        elif f.name in vars(cls):
            hash(vars(cls)[f.name])


def test_fields_rejects_a_non_record():
    with pytest.raises(TypeError, match="not a record"):
        fields(object())


def test_non_default_field_after_default_is_rejected():
    with pytest.raises(TypeError, match="non-default argument 'b' follows default argument"):

        @record
        class Broken:
            a: float = 1.0
            b: float


def test_post_init_sees_every_field():
    seen = []

    @record
    class Probe:
        a: float
        b: list = field(default_factory=list)
        c: float = math.pi

        def __post_init__(self):
            seen.append((self.a, self.b, self.c))

    Probe(1.0)
    Probe(2.0, c=3.0)
    assert seen == [(1.0, [], math.pi), (2.0, [], 3.0)]
    assert repr(Probe(1.0, [2])).endswith(".<locals>.Probe(a=1.0, b=[2], c=3.141592653589793)")
