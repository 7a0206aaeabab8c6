"""The immutable record base behind the package's argument and result types."""

from __future__ import annotations

setfield = object.__setattr__  # how an __init__ sets a field past the block below


class Record:
    """Value semantics for a class that names its fields in ``__slots__``.

    Records of one type are equal, and hash alike, when their fields are;
    the repr is ``Name(field=value, ...)``.  A field is set once, by the
    class's own ``__init__`` through :data:`setfield`, and then neither
    assigned nor deleted.  Pickle and copy rebuild a record by passing its
    fields to ``__init__`` in slot order.
    """

    __slots__ = ()

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
