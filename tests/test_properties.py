"""Property tests of the photon statistics and the exact click law.

Each property runs a small, derandomized set of hypothesis examples, so the
suite stays fast and gives the same result on every run.
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import bench_scenario
from relaysim.cli import _linspace
from relaysim.components import _SINC2_HALF_MAX_X, spdc_spectral_density
from relaysim.interference import v_statistics
from relaysim.montecarlo import compile_scenario, joint_law, run
from relaysim.photostats import apply_loss, herald_condition, poisson, thermal
from relaysim.units import SpectralMode

FAST = settings(max_examples=25, deadline=None, derandomize=True, database=None)

probability = st.floats(0.0, 1.0)


@FAST
@given(mean=st.floats(0.0, 0.2), survival=probability)
def test_thinned_thermal_stays_thermal(mean, survival):
    # Truncation at n = 20 leaves at most (0.2 / 1.2)**21 ~ 2e-17 of mass out.
    thinned = apply_loss(thermal(mean), survival)
    assert thinned.pmf == pytest.approx(thermal(mean * survival).pmf, rel=0.0, abs=1e-14)


@FAST
@given(mean=st.floats(0.0, 1.0), survival=probability)
def test_thinned_poisson_stays_poisson(mean, survival):
    thinned = apply_loss(poisson(mean), survival)
    assert thinned.pmf == pytest.approx(poisson(mean * survival).pmf, rel=0.0, abs=1e-14)


@FAST
@given(
    mean_a=st.floats(0.0, 0.3),
    mean_b=st.floats(0.01, 0.3),
    # At zero efficiency a dark-free herald never clicks: conditioning is undefined.
    etas=st.tuples(st.floats(1e-9, 1.0), st.floats(1e-9, 1.0)).map(sorted),
)
def test_visibility_monotone_in_herald_efficiency(mean_a, mean_b, etas):
    # A dark-free herald: with herald darks the conditioned mean can move away
    # from the external one as the efficiency grows, and V can fall.
    def vis(eta):
        return v_statistics(thermal(mean_a), herald_condition(thermal(mean_b), eta))

    low, high = vis(etas[0]), vis(etas[1])
    assert vis(None) <= low + 1e-12
    assert low <= high + 1e-12


@FAST
@given(
    mean_a=st.floats(0.0, 0.2),
    mean_b=st.floats(0.0, 0.2),
    eta=st.floats(0.05, 1.0),
    dark_per_ns=st.sampled_from([0.0, 1e-5, 1e-3]),
    alice_db=st.floats(0.0, 10.0),
    delay_mm=st.floats(-10.0, 10.0),
)
def test_joint_law_normalised_and_counts_ordered(mean_a, mean_b, eta, dark_per_ns, alice_db, delay_mm):
    sc = bench_scenario(mean_a, mean_b, eta, dark_per_ns, alice_db=alice_db, delay_mm=delay_mm)
    params = compile_scenario(sc)
    law = joint_law(params, params.overlap_at(params.delay_mm))
    assert law.min() >= 0.0
    assert math.isclose(law.sum(), 1.0, rel_tol=0.0, abs_tol=1e-12)
    p_a, p_b, p_c = law[1].sum(), law[:, 1].sum(), law[:, :, 1].sum()
    p_ab, p_abc = law[1, 1].sum(), law[1, 1, 1]
    assert p_abc <= min(p_ab, p_c)
    assert p_ab <= min(p_a, p_b)
    # The sampled tallies keep the same order, and the expected photon ledger balances.
    report = run(sc, 1000, seed=1)
    for leg in (report.dip, report.ref):
        assert leg.threefold_abc <= min(leg.twofold_ab, leg.singles_c)
        assert leg.twofold_ab <= min(leg.singles_a, leg.singles_b)
    ledger = report.ledger
    assert ledger.generated == pytest.approx(ledger.lost + ledger.undetected + ledger.detected, rel=1e-12)


finite = st.floats(-1e6, 1e6)


@FAST
@given(start=finite, stop=finite, num=st.integers(1, 300), same=st.booleans())
def test_linspace_equals_numpy(start, stop, num, same):
    stop = start if same else stop
    assert _linspace(start, stop, num) == np.linspace(start, stop, num).tolist()


@pytest.mark.parametrize(
    "args", [(0.0, 60.0, 1), (-9.0, 9.0, 13), (2.5, 2.5, 4), (9.0, -9.0, 7), (0.0, 5e-324, 3), (0.0, 1.0, 0)]
)
def test_linspace_grids_equal_numpy(args):
    # One point, a zero span, a negative span, a step that underflows to 0, no points.
    assert _linspace(*args) == np.linspace(*args).tolist()


@FAST
@given(
    center=st.floats(1400.0, 1700.0),
    fwhm_pm=st.floats(1.0, 2e5),
    wavelengths=st.lists(st.floats(1000.0, 2000.0), max_size=50),
)
def test_spectral_density_equals_numpy(center, fwhm_pm, wavelengths):
    # The center itself takes np.sinc's zero-argument branch.  numpy's
    # vectorized sin may round the last bit unlike the C library's,
    # so the check allows 2 ulp; the spdc-spectrum contract digest pins the
    # sinc^2 values of the paper-fig3 grid exactly.
    wavelengths = [*wavelengths, center]
    x = (np.asarray(wavelengths) - center) / (fwhm_pm * 1e-3)
    expected = np.sinc(2.0 * _SINC2_HALF_MAX_X * x / math.pi) ** 2
    density = spdc_spectral_density(SpectralMode(center, fwhm_pm), wavelengths)
    assert all(type(value) is float for value in density)
    np.testing.assert_array_max_ulp(np.asarray(density), expected, maxulp=2)


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 10


def test_after():
    pass
"""


def test_failing_property_reports_its_example(tmp_path):
    # Run under this suite's pytest settings: the failure must print its
    # falsifying example, and the next test must still run.
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(pyproject), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_failing_property.py"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "Falsifying example: test_fails(" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
