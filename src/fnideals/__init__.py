"""Exhaustive finite-model verification of ideal and Lie-ideal lattices of
algebra-valued function algebras.

Everything is exact (rational arithmetic; the CLI decides a subspace with
non-real entries through its realification) and every value type is
immutable, so the library is safe to drive from concurrent callers.  The
package exports nothing: import each module by name (fnideals.lattice, ...).
"""
