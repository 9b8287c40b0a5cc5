"""Base of the package's value types.

A value type is a plain class that lists its fields once, in `__slots__`,
and has a hand-written `__init__` that validates its arguments and ends in
one `self._fill(...)`.  Generating those methods at import time instead
would import `inspect` (and with it `ast`, `dis` and `tokenize`) and `exec`
the methods of every class, which costs a one-shot CLI process more
start-up time than most of its queries spend working.
"""

setfield = object.__setattr__


class Value:
    """A type whose fields are its own `__slots__`, in order.

    Instances are compared, hashed and printed by the tuple of their fields
    (`_key()`); values of different classes never compare equal, even with
    equal fields.  They refuse attribute assignment and deletion; copy and
    pickle still work.
    """

    __slots__ = ()

    def _fill(self, *values):
        """Set the fields to `values`, in slot order."""
        for name, value in zip(self.__slots__, values, strict=True):
            setfield(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return type(self).__name__ + repr(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __setstate__(self, state):
        # copy and pickle restore an instance from (None, {slot: value})
        for name, value in state[1].items():
            setfield(self, name, value)
