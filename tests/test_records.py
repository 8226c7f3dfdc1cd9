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

from relaysim.components import calibrate_coupler
from relaysim.config import ScenarioConfig, load_preset
from relaysim.interference import dip_profile
from relaysim.linkbudget import link_rates, max_distance
from relaysim.montecarlo import compile_scenario, expected_rates, run, scan_dip, subtract_accidentals
from relaysim.photostats import thermal
from relaysim.records import FrozenInstanceError, fields, record, replace
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
    report = run(config, 10**6, seed=1)
    link = config.to_link_params()
    built = [
        config,
        config.source("chip"),
        config.photon_mode(),
        config.calibration("coupler_c1_anchors").model,
        config.chip_layout(),
        config.passband("filter_c"),
        config.detector(),
        calibrate_coupler(config.coupler_c1_anchors, config.coupler_kappa_lc_rad),
        thermal(0.05),
        compile_scenario(config),
        expected_rates(config),
        report,
        report.dip,
        report.ledger,
        subtract_accidentals(report),
        scan_dip(config, [-9.0 + 1.5 * i for i in range(13)], 0),
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
        if f.name in vars(cls):
            default = dataclasses.field(default=vars(cls)[f.name])
        else:
            default = dataclasses.field()
        specs.append((f.name, cls.__annotations__[f.name], default))
    return dataclasses.make_dataclass(cls.__qualname__, specs, frozen=True)


def _values(x) -> list:
    return [getattr(x, f.name) for f in fields(x)]


def test_every_record_class_has_a_sample():
    assert len(CLASSES) == 21
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
    required = [getattr(x, f.name) for f in dataclasses.fields(twin) if f.default is dataclasses.MISSING]
    assert repr(cls(*required)) == repr(twin(*required))


def test_records_compare_on_field_values():
    assert SpectralMode(1530.0, 200.0) == SpectralMode(1530.0, fwhm_pm=200.0)
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
        (lambda: SpectralMode(1530.0, 200.0, 1.0), r"takes 3 positional arguments but 4"),
        (lambda: SpectralMode(1530.0, 200.0, width=1.0), r"unexpected keyword argument 'width'"),
        (
            lambda: SpectralMode(1530.0, fwhm_pm=200.0, center_wavelength_nm=1.0),
            r"multiple values for argument 'center_wavelength_nm'",
        ),
        (
            lambda: SpectralMode(1530.0, 200.0, fwhm_pm=1.0),
            r"multiple values for argument 'fwhm_pm'",
        ),
    ],
    ids=["missing", "missing-first", "too-many", "unknown-keyword", "duplicate", "duplicate-all"],
)
def test_bad_arguments_raise_type_error(call, message):
    with pytest.raises(TypeError, match=message):
        call()


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_defaults_are_hashable(name):
    # Every instance shares a field's default, which is safe only for a
    # default that cannot change: one that hashes holds no dict or list.
    cls = CLASSES[name]
    for f in fields(cls):
        if f.name in vars(cls):
            hash(vars(cls)[f.name])


# The fields that may carry a default.  The config states each model default
# once.  SpdcSource and ChipLayout repeat the config's value, since
# components sits below config in the imports.
ALLOWED_DEFAULTS = {
    *(f"ScenarioConfig.{f.name}" for f in fields(ScenarioConfig)),
    "SpdcSource.spectrum",
    "ChipLayout.measured_insertion_db",
}


def test_only_the_allowed_fields_have_defaults():
    defaults = {f"{name}.{f.name}" for name, cls in CLASSES.items() for f in fields(cls) if f.name in vars(cls)}
    assert defaults == ALLOWED_DEFAULTS


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
        b: float = math.pi

        def __post_init__(self):
            seen.append((self.a, self.b))

    Probe(1.0)
    Probe(2.0, b=3.0)
    assert seen == [(1.0, math.pi), (2.0, 3.0)]
    assert repr(Probe(1.0)).endswith(".<locals>.Probe(a=1.0, b=3.141592653589793)")
