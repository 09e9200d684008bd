"""The immutable value types' common base.

A value type lists its fields, in constructor order, in ``__slots__``, and
the defaults of its trailing fields in an optional ``_defaults`` mapping.
The base builds its ``__init__``, which stores each field through its
slot's member descriptor, makes every instance read-only and gives the
field-wise ``==``, ``hash`` and ``repr`` of a frozen dataclass, without
importing ``dataclasses``.
"""

from operator import attrgetter

# How ``Graph._trusted`` stores a field past Frozen's refusing ``__setattr__``.
set_field = object.__setattr__


def _build_init(cls):
    """``__init__(self, *fields)`` storing each field with its slot
    descriptor's ``__set__``, compiled once per class: ``Interval`` and
    ``Voter`` are built once per loaded voter, and a generic ``*args``
    constructor costs three times as much per call; :data:`set_field`,
    which looks the slot up by name, half as much again."""
    fields = cls._fields
    stores = "".join(f"    set_{name}(self, {name})\n" for name in fields)
    check = "    self._check()\n" if hasattr(cls, "_check") else ""
    namespace: dict = {f"set_{name}": getattr(cls, name).__set__ for name in fields}
    exec(f"def __init__(self, {', '.join(fields)}):\n{stores + check or '    pass'}\n", namespace)
    init = namespace["__init__"]
    init.__defaults__ = tuple(cls._defaults[name] for name in fields if name in cls._defaults)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class Frozen:
    """Read-only instances compared, hashed and pickled by their field tuple.

    ``_fields`` is the subclass's ``__slots__`` less ``"__dict__"``, which a
    subclass holding ``functools.cached_property`` values adds to its
    slots; ``_values(instance)`` is their values as a tuple.  A subclass
    that defines no ``__init__`` gets one taking the fields positionally,
    in slot order, with the defaults of ``_defaults``, that ends by calling
    ``self._check()`` if the subclass validates its fields in that method;
    pickling and copying call the class that way.  One that must stay
    mutable writes its own ``__init__``, puts back ``object``'s
    ``__setattr__`` and ``__delattr__`` and sets ``__hash__ = None``, as a
    non-frozen dataclass has it.
    """

    __slots__ = ()
    _fields: tuple[str, ...]
    _defaults: dict = {}

    def __init_subclass__(cls):
        fields = cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        # An attrgetter is no descriptor, so ``self._values`` is the getter
        # itself, called with the instance; so is a static method.
        if len(fields) == 1:
            get = attrgetter(fields[0])
            cls._values = staticmethod(lambda obj: (get(obj),))
        else:
            cls._values = attrgetter(*fields) if fields else staticmethod(lambda obj: ())
        if "__init__" not in cls.__dict__:
            cls.__init__ = _build_init(cls)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return (type(self), self._values(self))
