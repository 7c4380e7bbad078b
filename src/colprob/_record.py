"""The base class of colprob's records: ``repr``, ``==``, ``hash`` and
frozenness from the parameters of each record's own ``__init__``.

A record's fields are its ``__init__``'s positional parameters, in order.
``repr`` shows them by name; ``==`` holds between records of one class
with equal fields, and ``hash`` is the hash of the tuple of the fields.
Assigning to or deleting an attribute of a frozen record raises
AttributeError, so a frozen ``__init__`` sets its fields with
``object.__setattr__``. A subclass opts out in its class line:
``frozen=False`` makes it mutable and unhashable, ``eq=False`` compares
and hashes it by identity.

This is what ``@dataclass(frozen=True)`` generated, built without
``exec``: importing ``dataclasses`` (with ``inspect``, ``ast`` and
``tokenize``) and compiling each record's methods took about two thirds
of a fresh interpreter's ``import colprob, colprob.cli``.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = True, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        init = cls.__dict__.get("__init__")
        if init is not None:
            code = init.__code__
            cls._fields = fields = code.co_varnames[1:code.co_argcount]
            get = attrgetter(*fields)
            # The tuple of a record's field values; an attrgetter of one
            # name returns the value itself.
            cls._values = staticmethod(get if len(fields) > 1 else lambda record: (get(record),))
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={value!r}"
                           for name, value in zip(self._fields, self._values(self))])
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
