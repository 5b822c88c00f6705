"""Simulator and verification suite for twist defects in the planar surface code.

The package is organized around the physics pipeline: exact Pauli-string
algebra (``pauli``), the dislocated planar lattice (``lattice``), the
two-dimensional Jordan-Wigner engine exposing the twists' unpaired Majorana
modes (``jw``), a four-Majorana-per-site signed-permutation oracle
(``projection``), stabilizer tableau simulation with both parity-readout
schemes (``tableau``), Ising anyon fusion/braiding algebra (``anyon``), the
measurement-based braiding engine over interchangeable backends (``mbb``),
dense reference implementations (``dense``), and a batch CLI (``cli``).
"""

__version__ = "0.1.0"

from .lattice import Segment, TwistLattice, build_lattice  # noqa: F401
from .pauli import PauliString  # noqa: F401
