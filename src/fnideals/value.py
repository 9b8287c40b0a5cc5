"""Bases of the package's value types.

Value types are plain classes with `__slots__` and a hand-written
`__init__` that validates its arguments.  Generating those methods at import
time instead would import `inspect` (and with it `ast`, `dis` and
`tokenize`) and `exec` the methods of every class, which costs a one-shot
CLI process more start-up time than most of its queries spend working.
"""

# An `__init__` fills the slots of a Frozen instance through this.
setfield = object.__setattr__


class Frozen:
    """Instances refuse attribute assignment and deletion; copy and pickle
    still work."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __setstate__(self, state):
        # copy and pickle restore an instance from (None, {slot: value})
        for name, value in state[1].items():
            setfield(self, name, value)


class Value(Frozen):
    """A Frozen type compared and hashed by its `_key()` tuple.

    Instances of different classes never compare equal, even with equal keys.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return type(self).__name__ + repr(self._key())
