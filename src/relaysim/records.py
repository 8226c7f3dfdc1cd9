"""Frozen value records: the part of a frozen dataclass this package uses.

`@record` turns a class whose annotations list its fields into an immutable
value type.  Every record shares one `__init__`, `__eq__`, `__hash__`,
`__repr__`, `__setattr__` and `__delattr__`, which read the class's field
table; no source is generated or compiled per class, so declaring a record
costs a few microseconds on a cold start instead of milliseconds.

Behaviour matches a frozen dataclass: construction by position and keyword in
field order, plain defaults (every instance shares a default, so it must not be
mutable), `__post_init__` after construction (and after `replace`), equality
only between instances of the same class on their field values, a hash of the
field values, and the dataclass repr.  `fields()` gives each field's name and
annotation (a string under `from __future__ import annotations`).
"""

from __future__ import annotations


class FrozenInstanceError(AttributeError):
    """Raised on assigning to or deleting an attribute of a record."""


class Field:
    """One record field: its name and its annotation."""

    __slots__ = ("name", "type")

    def __init__(self, name: str, type: str):
        self.name = name
        self.type = type


def fields(obj) -> tuple[Field, ...]:
    """The fields of a record class or instance, in declaration order."""
    try:
        return obj.__record_fields__
    except AttributeError:
        raise TypeError(f"{obj!r} is not a record class or instance") from None


def replace(obj, /, **changes):
    """A copy of obj with the given fields changed; __post_init__ runs on it."""
    for f in fields(obj):
        if f.name not in changes:
            changes[f.name] = getattr(obj, f.name)
    return obj.__class__(**changes)


_MISSING = object()


def _bind(cls, args: tuple, kwargs: dict) -> list:
    """All field values, in order, from a call with keywords, defaults or wrong arity."""
    names, defaults, _ = cls.__record__
    where = f"{cls.__qualname__}.__init__()"
    n = len(args)
    if n > len(names):
        raise TypeError(
            f"{where} takes {len(names) + 1} positional arguments but {n + 1} were given"
        )
    values = list(args)
    unused = len(kwargs)
    for name in names[n:]:
        value = kwargs.get(name, _MISSING)
        if value is not _MISSING:
            unused -= 1
        else:
            value = defaults.get(name, _MISSING)
            if value is _MISSING:
                raise TypeError(f"{where} missing required argument: {name!r}")
        values.append(value)
    if unused:
        for key in kwargs:
            if key in names[:n]:
                raise TypeError(f"{where} got multiple values for argument {key!r}")
            if key not in names:
                raise TypeError(f"{where} got an unexpected keyword argument {key!r}")
    return values


def _init(self, *args, **kwargs):
    cls = type(self)
    names, _, post_init = cls.__record__
    if kwargs or len(args) != len(names):
        args = _bind(cls, args, kwargs)
    self.__dict__.update(zip(names, args))
    if post_init is not None:
        post_init(self)


def _values(self) -> tuple:
    return tuple([getattr(self, name) for name in self.__record__[0]])


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _values(self) == _values(other)


def _hash(self) -> int:
    return hash(_values(self))


def _repr(self) -> str:
    items = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__record__[0])
    return f"{self.__class__.__qualname__}({items})"


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


_METHODS = {
    "__init__": _init,
    "__eq__": _eq,
    "__hash__": _hash,
    "__repr__": _repr,
    "__setattr__": _setattr,
    "__delattr__": _delattr,
}


def record(cls):
    """Class decorator: the class's own annotated attributes become the fields of a frozen record.

    A field without a default may not follow one with a default.
    """
    table = []
    defaults = {}
    for name, annotation in vars(cls).get("__annotations__", {}).items():
        table.append(Field(name, annotation))
        default = vars(cls).get(name, _MISSING)
        if default is not _MISSING:
            defaults[name] = default
        elif defaults:
            raise TypeError(f"non-default argument {name!r} follows default argument")
    cls.__record_fields__ = tuple(table)
    cls.__record__ = (tuple(f.name for f in table), defaults, getattr(cls, "__post_init__", None))
    for name, method in _METHODS.items():
        if name not in vars(cls):
            setattr(cls, name, method)
    return cls
