"""The immutable record base behind the package's argument and result types."""

from __future__ import annotations

setfield = object.__setattr__  # how an __init__ sets a field past the block below


class Record:
    """Value semantics for a class that names its fields in ``__slots__``.

    ``__init__`` binds its arguments to the slots in order, the trailing
    ones defaulting to the class's ``_defaults``; a record that checks its
    arguments does so in its own ``__init__``, then calls this one.  Records
    of one type are equal, and hash alike, when their fields are; the repr
    is ``Name(field=value, ...)``.  A field is set once and then neither
    assigned nor deleted.  Pickle and copy pass the fields to ``__init__``.
    """

    __slots__ = ()
    _defaults = ()  # the values of the last len(_defaults) slots

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            setfield(self, name, value)

    def _bind(self, args: tuple, kwargs: dict) -> list:
        # one value per slot, or the TypeError a call with a wrong signature raises
        names, title = self.__slots__, type(self).__qualname__
        if len(args) > len(names):
            raise TypeError(f"{title}() takes {len(names)} fields, got {len(args)}")
        values = dict(zip(names[len(names) - len(self._defaults):], self._defaults))
        values.update(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{title}() has no field {name!r}")
            if names.index(name) < len(args):
                raise TypeError(f"{title}() got field {name!r} twice")
            values[name] = value
        try:
            return [values[name] for name in names]
        except KeyError as missing:
            raise TypeError(f"{title}() missing field {missing}") from None

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._fields()
