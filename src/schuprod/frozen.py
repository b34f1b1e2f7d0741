"""Immutable value classes without the dataclasses machinery.

A subclass of Frozen lists its fields in __slots__ and sets them in its
own __init__ through object.__setattr__.  It then behaves as a frozen
dataclass: objects of the same class with equal fields are equal and
hash alike, objects of different classes are never equal, the repr
names the fields, and any assignment or deletion raises AttributeError.
Equality and hash read the fields through one operator.attrgetter, in C;
a class on a hot path may define its own.

The package's value classes are built on this plain class, not on
dataclasses, so that a run of the command line does not import
dataclasses, inspect and the modules they pull in.
"""

from __future__ import annotations

from operator import attrgetter


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # A "__dict__" slot only holds cached properties, which are not
        # fields; a subclass that lists no slots keeps its base's fields.
        fields = tuple(name for name in cls.__dict__.get("__slots__", ()) if name != "__dict__")
        if fields:
            cls._fields = fields
            cls._key = attrgetter(*fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def __reduce__(self):
        # The default reduction restores slots by assignment, which raises.
        return type(self), tuple(getattr(self, name) for name in self._fields)
