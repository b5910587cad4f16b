"""Immutable value records: the one base of the package's value types.

A subclass names its fields in __slots__; an optional _fields narrows
the ones that construction, ==, hash and repr use (the rest are values
the subclass derives in its own __init__). Construction takes every
field, by position or keyword; a subclass that lets one be omitted says
so in its own __init__. Instances are frozen: assignment and deletion
raise AttributeError.
"""


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields or key in values:
                raise TypeError(f"{name}: unexpected or repeated field {key!r}")
            values[key] = value
        for key in fields:
            if key not in values:
                raise TypeError(f"{name}: missing field {key!r}")
            object.__setattr__(self, key, values[key])

    def _values(self) -> tuple:
        return tuple(getattr(self, key) for key in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{key}={getattr(self, key)!r}" for key in self._fields)
        return f"{type(self).__name__}({body})"

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to field {key!r} of a frozen {type(self).__name__}")

    def __delattr__(self, key):
        raise AttributeError(f"cannot delete field {key!r} of a frozen {type(self).__name__}")
