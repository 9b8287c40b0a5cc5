"""Reference helpers shared by the tests; independent of the package's fast paths."""


def vec_dot(u, v):
    """Standard bilinear pairing of two coordinate rows."""
    return sum(a * b for a, b in zip(u, v))


def gaussian_text(re, im):
    """re + im*i written as "p/q", "r/s i" or "p/q+r/s i", as a problem file does."""
    if not im:
        return str(re)
    if not re:
        return f"{im} i"
    sign = "+" if im > 0 else "-"
    return f"{re}{sign}{abs(im)} i"
