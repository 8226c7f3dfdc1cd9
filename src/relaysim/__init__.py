"""Quantum relay link simulator.

Models an integrated relay circuit (pair source, two electro-optic couplers,
filters, gated detectors), predicts two-photon interference visibility
analytically and by Monte Carlo, and computes one-way key rates versus
distance for direct and relay-assisted links.

Importing the package loads none of its modules: import from the submodules,
e.g. `from relaysim.montecarlo import run`.  numpy is loaded only by the
Monte Carlo engine and the dip fit, so the `spdc-spectrum`, `coupler-curve`,
`visibility-map` and `keyrate-sweep` subcommands run without it.
"""

__version__ = "0.1.0"
