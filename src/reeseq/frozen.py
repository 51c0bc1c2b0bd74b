"""Immutable value classes, written without the dataclasses module.

Importing dataclasses costs a CLI process more than deciding most questions
(it loads inspect, ast, dis and tokenize, and builds each class through
exec), so the package's values derive from Frozen instead.  A subclass
names its fields in __slots__ and its __init__ sets each field once:
through object.__setattr__, or, in the classes built in inner loops,
through the slot's own setter from slot_setters, which is faster.

Two kinds of slot hold values derived from the fields rather than fields,
and take no part in equality, hashing or the repr: a slot whose name
starts with an underscore, set in __init__ (StructureMatrix keeps its hash
there, ReesSemigroup its index bounds, Polynomial its variables and
constants), and "__dict__", where cached_value stores what it computes on
first read.
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
        # "__dict__" and the _derived slots are not fields
        return [name for name in self.__slots__ if name[0] != "_"]

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
    """The setter of each slot of cls but "__dict__", in __slots__ order:
    setter(obj, value) stores a field, or a derived value, without passing
    through Frozen.__setattr__."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__
                 if name != "__dict__")


class cached_value:
    """A method read as an attribute, computed on the first read of each
    instance and stored in its __dict__ under the method's name.

    The descriptor defines no __set__, so every later read finds the value
    in the instance __dict__ and never calls it again.  Unlike
    functools.cached_property, which takes a lock on every first read under
    CPython 3.11, it locks nothing: two threads that read a fresh instance
    at once may both compute the value, and the values are equal, since
    the method reads only fields that never change.  Read through the
    class, it returns itself.
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner):
        if obj is None:
            return self
        value = self.func(obj)
        try:
            obj.__dict__[self.name] = value
        except AttributeError:
            raise TypeError(f"{owner.__name__} has no '__dict__' slot to "
                            f"keep {self.name!r} in") from None
        return value
