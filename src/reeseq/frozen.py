"""Immutable value classes, written without the dataclasses module.

Importing dataclasses costs a CLI process more than deciding most questions
(it loads inspect, ast, dis and tokenize, and builds each class through
exec), so the package's values derive from Frozen instead.  A subclass
names its fields in __slots__ ("__dict__" included when it keeps
cached_property values) and its __init__ sets each field once: through
object.__setattr__, or, in the classes built in inner loops, through the
slot's own setter from slot_setters, which is faster.
"""

from __future__ import annotations


class Frozen:
    """A value whose fields cannot be assigned after __init__.

    Two values are equal when they are of the same class and their fields
    are equal, equal values hash alike, and the repr lists the fields.  The
    classes built in inner loops write their own __eq__ and __hash__ out in
    full, which is faster than the field loop here.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set field {name!r} of a frozen "
                             f"{type(self).__name__} to {value!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a "
                             f"frozen {type(self).__name__}")

    def _field_names(self):
        return [name for name in self.__slots__ if name != "__dict__"]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._field_names()])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return (type(self).__qualname__ + "("
                + ", ".join(f"{name}={getattr(self, name)!r}"
                            for name in self._field_names()) + ")")


def slot_setters(cls) -> tuple:
    """The setter of each field of cls, in __slots__ order: setter(obj,
    value) stores a field without passing through Frozen.__setattr__."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__
                 if name != "__dict__")
