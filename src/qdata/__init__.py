"""Simulation laboratory for black-box tests of quantum data processors.

The package models "boxes" that transform quantum states — honest CPTP
channels alongside deliberately post-quantum families (Bloch-sphere
nonlinearities, projective-collapse hybrids, signalling bipartite pairs) —
and a suite of statistical detectors that probe a box and rule whether its
behaviour is consistent with quantum mechanics.  A scenario harness sweeps
parameter grids, runs detector suites reproducibly, and writes JSON
reports.

Layers, lowest first: :mod:`~qdata.rng` and :mod:`~qdata.linalg` (exact
small-dimension linear algebra), :mod:`~qdata.states` and
:mod:`~qdata.channels` (states, POVMs, ensembles, CPTP maps),
:mod:`~qdata.boxes` (box models and box pairs), :mod:`~qdata.tomography`
(state and process reconstruction), :mod:`~qdata.detectors` (verdict
layer), :mod:`~qdata.scenario` / :mod:`~qdata.harness` / :mod:`~qdata.cli`
(the runner).
"""

from . import boxes, channels, detectors, harness, linalg, rng, scenario, states, tomography
from ._version import __version__
from .rng import *
from .linalg import *
from .states import *
from .channels import *
from .boxes import *
from .tomography import *
from .detectors import *
from .scenario import *
from .harness import *

__all__ = ["__version__"]
for _module in (rng, linalg, states, channels, boxes, tomography, detectors, scenario, harness):
    __all__ += _module.__all__
del _module
