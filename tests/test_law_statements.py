"""Each probability law of the model is written out in one module only.

The binomial law Bin(k | n, p) lives in `photostats.binomial` and the
detector click law (1 - p)^m (1 - dark) in `components.detector_clicks`;
every other module reads them from there.  The independent references under
tests/ keep their own copies on purpose and are not checked.
"""

import re
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "relaysim"

# Law: (a pattern that writes it out, the one module that may hold it).
LAWS = {
    "binomial": (r"math\.comb\(", "photostats.py"),
    "click law": (r"\*\* *(m|n|incident_photons) *\* *\(1\.0 -", "components.py"),
}


@pytest.mark.parametrize("pattern,home", LAWS.values(), ids=LAWS)
def test_each_law_is_stated_once(pattern, home):
    holders = [path.name for path in sorted(SOURCE.glob("*.py")) if re.search(pattern, path.read_text(encoding="utf-8"))]
    assert holders == [home]
