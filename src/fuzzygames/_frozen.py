"""Immutable bases for the core classes.

Frozen instances refuse every attribute assignment and deletion; their
constructors set slots through object.__setattr__.  Copies and pickles
restore the slots of the original, which its constructor already
validated: nothing is checked again, so a float value accepted within a
tolerance survives the round trip.  Value adds equality, hashing and a
constructor-form repr, all read from the class's _fields: two values are
equal when they have the same class and equal fields.

These are plain bases, not frozen dataclasses, because decorating each class
costs time on every fresh import.
"""

from operator import attrgetter


def _restore(cls, state):
    obj = object.__new__(cls)
    for name, value in zip(cls._slots, state):
        object.__setattr__(obj, name, value)
    return obj


class Frozen:
    """Refuses attribute assignment and deletion after construction."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # every slot down the class chain, set by the constructor
        cls._slots = tuple(
            name
            for klass in cls.__mro__
            for name in klass.__dict__.get("__slots__", ())
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        state = tuple(getattr(self, name) for name in self._slots)
        return _restore, (type(self), state)


class Value(Frozen):
    """A Frozen whose equality, hash and repr come from its _fields."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # built once per class: spaces are compared on every integral
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if self is other:
            return True
        return type(other) is type(self) and self._key(self) == self._key(other)

    def __hash__(self):
        return hash((type(self), self._key(self)))

    def __repr__(self):
        args = ", ".join(
            repr(list(v) if isinstance(v, tuple) else v)
            for v in (getattr(self, name) for name in self._fields)
        )
        return f"{type(self).__name__}({args})"
