"""The immutable value types' common base.

A value type lists its fields, in constructor order, in ``__slots__`` and
writes its own ``__init__``, which stores each field with
:data:`set_field`.  The base makes every instance read-only and gives the
field-wise ``==``, ``hash`` and ``repr`` of a frozen dataclass, without
importing ``dataclasses``.
"""

# How an ``__init__`` stores a field past Frozen's refusing ``__setattr__``.
set_field = object.__setattr__


class Frozen:
    """Read-only instances compared, hashed and pickled by their field tuple.

    ``_fields`` is the subclass's ``__slots__`` less ``"__dict__"``, which a
    subclass holding ``functools.cached_property`` values adds to its
    slots.  Pickling and copying rebuild an instance by calling the class
    with its field values, so ``__init__`` must take the fields
    positionally, in slot order.  A subclass that must stay mutable puts
    back ``object``'s ``__setattr__`` and ``__delattr__`` and sets
    ``__hash__ = None``, as a non-frozen dataclass has it.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return (type(self), self._values())
