"""The base of the records whose length is not their field count.

The package's records are immutable `typing.NamedTuple`s, except the
two `Record`s in `data`, `TimeSeries` and `Calendar`: their length counts
days, which a tuple's ``_make`` and ``_replace`` would take for the field
count. No module a verb imports uses `dataclasses`, whose import and
per-class generated code slowed the start of every process; only the
baselines' `hierarchy` and `baselines` do.
"""


class Record:
    """Fields named by ``__slots__``, set once: assigning to one raises.
    Records are equal, and hash alike, when their types and fields are.
    ``__init__`` takes the fields in order; a subclass that checks its
    fields overrides it and sets them with ``object.__setattr__``, and
    `_make` sets them without checks."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    @classmethod
    def _make(cls, values):
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"
