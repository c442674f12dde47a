"""Cache-aware bit-interleaved array layouts.

Index math for generalized interleaved layouts, trace-driven cache
simulation of classic loop kernels over them, a cycle-count fitness model,
and an evolutionary search for cache-friendly layouts.

The package exports every name its library modules list in ``__all__``;
the command line lives in ``bitweave.cli`` and is not imported here.
"""

from bitweave.cachesim import *
from bitweave.cachespec import *
from bitweave.evolve import *
from bitweave.fitness import *
from bitweave.layout import *
from bitweave.patterns import *

__version__ = "0.1.0"
