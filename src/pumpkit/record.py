"""Frozen records: the package's replacement for @dataclass(frozen=True).

Every pumpkit command imports the whole package before it does any work,
so the import is part of each command's wall time. With the standard
library's dataclass decorator, most of `import pumpkit.cli` went to it
(fresh CPython 3.11 interpreters on a 2-vCPU VM, medians of 21): about a
fifth to importing its module, which pulls in inspect, ast, dis and
tokenize, and about half to decorating the package's 28 record classes,
each of which compiled six methods with exec. This module gives the same
records without either cost, and the import takes about a third of the
time it took.

A class decorated with `record` gets what a frozen dataclass gets: an
__init__ over its annotated fields with their defaults, followed by
__post_init__ when the class has one; equality between records of the
same class only, by the tuple of compared fields; a hash of that tuple;
a repr of the shown fields, and an AttributeError subclass on setting or
deleting an attribute. `field` marks a field left out of __init__, repr
or ==, and `replace` rebuilds a record with some fields changed, through
__init__, so derived fields are computed again.

Records are built many times per operation, so two rules keep
construction as fast as a dataclass's:

- __init__ sets each field with object.__setattr__. Writing through
  self.__dict__ instead would materialize the instance dict and give up
  the interpreter's inline attribute values, which slows every later
  read of a field.
- Each class gets an __init__ of its own, compiled once with exec, that
  names every field. The other methods are shared by all classes: == and
  the hash read the compared fields with an operator.attrgetter kept on
  the class.
"""

from __future__ import annotations

from operator import attrgetter

_MISSING = object()


class FrozenInstanceError(AttributeError):
    """Setting or deleting an attribute of a record."""


class _Field:
    __slots__ = ("default", "init", "repr", "compare")

    def __init__(self, default, init, repr, compare):
        self.default, self.init, self.repr, self.compare = default, init, repr, compare


def field(*, default=_MISSING, init: bool = True, repr: bool = True, compare: bool = True):
    """A field with a default, or one left out of __init__, repr or ==."""
    return _Field(default, init, repr, compare)


def _key(names):
    """The class attribute that maps a record to the tuple of its fields
    `names`. An attrgetter is no descriptor, so it stays unbound when read
    from an instance; the functions are wrapped so that they do too."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return staticmethod(lambda obj: (get(obj),))
    return staticmethod(lambda obj: ())


def _eq(self, other):
    if other.__class__ is self.__class__:
        return self._record_key(self) == self._record_key(other)
    return NotImplemented


def _hash(self):
    return hash(self._record_key(self))


def _repr(self):
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._record_repr)
    return f"{self.__class__.__qualname__}({shown})"


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls):
    """Make `cls` a frozen record over its annotated fields, in order."""
    fields = {}
    for name in cls.__dict__.get("__annotations__", {}):
        spec = cls.__dict__.get(name, _MISSING)
        if not isinstance(spec, _Field):
            spec = _Field(spec, True, True, True)
        if spec.default is _MISSING:
            if name in cls.__dict__:
                delattr(cls, name)
        else:
            setattr(cls, name, spec.default)
        fields[name] = spec

    scope = {"_set": object.__setattr__}
    params, body = ["self"], []
    for name, spec in fields.items():
        if not spec.init:
            continue
        if spec.default is not _MISSING:
            scope[f"_default_{name}"] = spec.default
        params.append(name if spec.default is _MISSING else f"{name}=_default_{name}")
        body.append(f"_set(self, {name!r}, {name})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__({', '.join(params)}):\n    " + "\n    ".join(body or ["pass"]), scope)
    init = scope["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"

    cls.__init__ = init
    cls._record_init = tuple(name for name, spec in fields.items() if spec.init)
    cls._record_repr = tuple(name for name, spec in fields.items() if spec.repr)
    cls._record_key = _key(tuple(name for name, spec in fields.items() if spec.compare))
    cls.__eq__, cls.__hash__, cls.__repr__ = _eq, _hash, _repr
    cls.__setattr__, cls.__delattr__ = _setattr, _delattr
    return cls


def replace(obj, /, **changes):
    """A copy of the record `obj` with the fields `changes` set, built
    through its class's __init__."""
    for name in obj._record_init:
        changes.setdefault(name, getattr(obj, name))
    return obj.__class__(**changes)
