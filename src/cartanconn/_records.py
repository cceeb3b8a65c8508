"""Bases of the library's record classes.

Each record names its fields, in constructor order, in ``_fields`` and
sets them in a hand-written ``__init__``, so importing a module generates
and compiles no code. :class:`FrozenRecord` fields are set once, through
:data:`set_field` (``object.__setattr__``); a cached property still
stores into the instance's ``__dict__``. :class:`ValueRecord` adds
equality and a hash on the shown fields, for records that stand for their
values.
"""

from __future__ import annotations

# bound once: a record's ``__init__`` calls it per field, and the bound name
# is cheaper to call than ``object.__setattr__`` looked up each time
set_field = object.__setattr__


class Record:
    """A record with a ``ClassName(field=value, ...)`` repr of its fields
    (without those named in ``_hidden``); equal only to itself."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields if name not in self._hidden)
        return f"{type(self).__qualname__}({shown})"


class FrozenRecord(Record):
    """A record whose fields cannot be assigned or deleted after ``__init__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__qualname__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__qualname__}")


class ValueRecord(FrozenRecord):
    """A frozen record equal to a record of the same class with equal shown
    fields, and hashed by them: a ``_hidden`` field (a report's witness
    arrays, say) is a diagnostic, not part of the value."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields if name not in self._hidden])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())
