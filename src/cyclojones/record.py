"""Record, the package's immutable value type.  A subclass's annotated fields,
with their defaults, become slots; records are built by position or keyword,
checked by _validate, compare and pickle by type and field values, and hash
by the values."""


class _RecordType(type):
    def __new__(mcls, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))
        ns["_defaults"] = {f: ns.pop(f) for f in fields if f in ns}
        ns["__slots__"] = ns["_fields"] = fields
        return super().__new__(mcls, name, bases, ns)


class Record(metaclass=_RecordType):
    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            given = dict(zip(fields, args))
            values = {**self._defaults, **given, **kwargs}
            if len(args) > len(fields) or given.keys() & kwargs or values.keys() != set(fields):
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
            args = [values[f] for f in fields]
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self._validate()

    def _validate(self) -> None:
        """Raise ValueError for field values the record does not admit."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: a {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # (type, field values): what equality, hashing and repr use
        return type(self), tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__()[1])

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self.__reduce__()[1]))})"
