"""Frozen value classes, built without :mod:`dataclasses`.

``@value`` turns a class whose body annotates its fields, some with defaults,
into an immutable value class: ``__init__`` (ending in ``__post_init__`` when
the class has one), ``__repr__``, ``__eq__``, ``__hash__``, ``__match_args__``,
``__setattr__``/``__delattr__`` that raise AttributeError, and ``__reduce__``,
so pickle and copy rebuild a value through ``__init__``.  A method the class
defines itself is kept.  The class is rebuilt with its fields as
``__slots__``, so its instances have no ``__dict__``.

The per-call methods (``__init__``, ``__eq__``, ``__hash__``) are compiled
from one generated source text per class; the rest are shared.  This keeps
import cheap: :mod:`dataclasses` imports :mod:`inspect` and compiles every
method of every class on its own.

A value that holds a mapping stores it as a :class:`FrozenDict`.

:func:`_tuple` writes a piece of the other generated source: the machines of
:mod:`tstd.executor` and the network loop of :mod:`tstd.network`, which
runs no machine when its network has none.
"""

_METHODS = """\
def __init__(self, {params}):
{body}
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({mine},) == ({theirs},)
    return NotImplemented
def __hash__(self):
    return hash(({mine},))
"""


def _repr(self):
    shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
    return f"{self.__class__.__qualname__}({shown})"


def _reduce(self):
    return (self.__class__, tuple(getattr(self, f) for f in self.__match_args__))


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def value(cls):
    """Class decorator: ``@value``."""
    fields = tuple(cls.__annotations__)
    defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
    body = {k: v for k, v in cls.__dict__.items() if k not in defaults}
    for k in ("__dict__", "__weakref__"):
        body.pop(k, None)
    body.update(__slots__=fields, __qualname__=cls.__qualname__)
    cls = type(cls)(cls.__name__, cls.__bases__, body)
    lines = [f"    _set(self, {f!r}, {f})" for f in fields]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    namespace = {"_set": object.__setattr__, "_defaults": defaults}
    exec(
        _METHODS.format(
            params=", ".join(f"{f}=_defaults[{f!r}]" if f in defaults else f for f in fields),
            body="\n".join(lines),
            mine=", ".join(f"self.{f}" for f in fields),
            theirs=", ".join(f"other.{f}" for f in fields),
        ),
        namespace,
    )
    methods = dict(
        __repr__=_repr, __reduce__=_reduce, __setattr__=_setattr, __delattr__=_delattr
    )
    for name in ("__init__", "__eq__", "__hash__"):
        methods[name] = namespace[name]
        namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    cls.__match_args__ = fields
    return cls


class FrozenDict(dict):
    """A dict whose mutators raise TypeError, hashed by its items.

    It prints and compares as a dict.  ``__reduce__`` rebuilds it from a
    plain dict: pickle and copy would fill an empty one through
    ``__setitem__``.
    """

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{self.__class__.__name__} does not support item assignment")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return (self.__class__, (dict(self),))


def _tuple(items):
    """Source text of a tuple display (or target) of the strings ``items``."""
    return "(" + "".join(f"{item}, " for item in items) + ")"
