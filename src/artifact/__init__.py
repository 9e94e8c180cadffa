"""Coadjoint-orbit classification for lower unitriangular groups.

Modules:
  root_system   roots, lex order, structure constants, pick splits
  admissible    admissible diagrams, maximal catalogs
  symbolic      Poisson brackets, column reduction, defining ideals
  char_matrix   characteristic-matrix minors and invariant systems
  orbit_engine  finite-field orbits, classification, censuses
  cli           the `artifact` command line tool
"""

__version__ = "0.1.0"

__all__ = [
    "admissible",
    "char_matrix",
    "cli",
    "orbit_engine",
    "root_system",
    "symbolic",
]
