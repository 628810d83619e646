"""Immutable value records, the package's stand-in for frozen dataclasses.

A subclass of `Record` declares its fields as class annotations, in
order, and optional defaults as class attributes.  It gets positional
or keyword construction, equality and hashing over the field values, a
`Name(field=value, ...)` repr, and refuses assignment and deletion, as
`@dataclass(frozen=True)` would give, without importing `dataclasses`
or compiling generated methods when the class is created.  A
`__post_init__` method, if defined, runs after the fields are set and
may normalise a field with `object.__setattr__`.  Instances keep a
`__dict__`, so `functools.cached_property` works on them.
"""


class Record:
    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = {}
        for klass in reversed(cls.__mro__[:cls.__mro__.index(Record)]):
            names.update(dict.fromkeys(vars(klass).get("__annotations__", {})))
        cls._fields = tuple(names)
        cls._defaults = {n: getattr(cls, n) for n in names if hasattr(cls, n)}

    def __init__(self, *args, **kwargs):
        fields, name = self._fields, type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes at most {len(fields)} positional "
                            f"arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for key in kwargs:
            if key not in fields or key in values:
                raise TypeError(f"{name}() got an unexpected or repeated "
                                f"argument {key!r}")
        values.update(kwargs)
        state = self.__dict__
        for field in fields:
            if field in values:
                state[field] = values[field]
            elif field in self._defaults:
                state[field] = self._defaults[field]
            else:
                raise TypeError(f"{name}() missing argument {field!r}")
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
