"""Continuous quantum walks on oriented normal Cayley graphs.

The package certifies perfect and multiple state transfer on such graphs two
independent ways: a character-theoretic criterion evaluated on exact or
numerically recovered character tables, and a matrix-exponential oracle
whose walk generator is read from the group table. Each name is imported
from the module that defines it, so either route loads without the other.
"""
__version__ = "0.1.0"
