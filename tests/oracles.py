"""Reference helpers shared by the tests; independent of the package's fast paths."""


def vec_dot(u, v):
    """Standard bilinear pairing of two coordinate rows."""
    return sum(a * b for a, b in zip(u, v))
