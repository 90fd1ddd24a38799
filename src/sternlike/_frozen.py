"""The base of the package's immutable value classes.

Each subclass lists its fields in `__slots__`, in constructor order, and
sets them in its own `__init__` through `set_field`, after validating them.
The base gives, with no code generated per class and nothing imported but
`operator`:

- equality: the same class and equal compared fields;
- a hash of the tuple of compared fields, computed once and cached;
- the repr `Name(field=value, ...)` over every field, in slot order;
- assignment and deletion raise AttributeError;
- `pickle` and `copy` rebuild an instance from its fields.

Fields named in a subclass's `_uncompared` take no part in equality or the
hash.  A subclass that lists `__dict__` in its slots may cache derived
values there (`functools.cached_property`), which none of the above reads.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Frozen", "set_field"]

# sets a field in `__init__`, past the frozen `__setattr__`
set_field = object.__setattr__


class Frozen:
    __slots__ = ("_hash",)
    _fields: tuple[str, ...] = ()
    _uncompared: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        compared = [name for name in cls._fields if name not in cls._uncompared]
        get = attrgetter(*compared)
        # the compared fields as a tuple, also when there is only one
        cls._key = staticmethod(get if len(compared) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            value = hash(self._key(self))
            set_field(self, "_hash", value)
            return value

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)
