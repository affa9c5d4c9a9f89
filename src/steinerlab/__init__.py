"""Random Steiner complexes: sampling, spectra, spanning-tree counts, limit laws."""

from .complexes import *
from .sampling import *
from .arboreal import *
from .spectra import *
from .trees import *
from .limitlaw import *

__version__ = "0.1.0"
