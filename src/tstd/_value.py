"""Frozen value classes, built without :mod:`dataclasses`.

``@value`` turns a class whose body annotates its fields, some with defaults,
into an immutable value class: ``__init__`` (ending in ``__post_init__`` when
the class has one), ``__repr__``, ``__eq__``, ``__hash__``, ``__match_args__``,
``__setattr__``/``__delattr__`` that raise AttributeError, and ``__reduce__``,
so pickle and copy rebuild a value through ``__init__``.  A method the class
defines itself is kept.  The class is rebuilt with its fields as
``__slots__``, so its instances have no ``__dict__``.

Nothing is compiled per class: all value classes share one ``__init__``,
which binds its arguments with the class's ``_defaults``, and one ``__eq__``
and ``__hash__``, which read the fields through its ``_key``, an
:func:`operator.attrgetter`.  (:mod:`dataclasses` compiles each method.)

A value that holds a mapping stores it as a :class:`FrozenDict`.

:func:`_tuple` writes a piece of the generated source of what runs per tick:
the machines of :mod:`tstd.executor` and the network loop of
:mod:`tstd.network`, which runs no machine when its network has none.
"""

from operator import attrgetter


def _init(self, *args, **kwargs):
    cls = self.__class__
    fields = cls.__match_args__
    if kwargs or len(args) != len(fields):
        # Bind the arguments as a function of the fields would.
        rest = set(fields[len(args) :])
        bound = {**cls._defaults, **kwargs}
        if len(args) > len(fields) or not kwargs.keys() <= rest <= bound.keys():
            raise TypeError(f"{cls.__qualname__}() takes the fields {', '.join(fields)}")
        args = (*args, *map(bound.__getitem__, fields[len(args) :]))
    for name, arg in zip(fields, args):
        object.__setattr__(self, name, arg)
    if cls._has_post_init:
        self.__post_init__()


def _eq(self, other):
    same = other.__class__ is self.__class__
    return self._key(self) == self._key(other) if same else NotImplemented


def _hash(self):
    return hash(self._key(self))


def _repr(self):
    shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
    return f"{self.__class__.__qualname__}({shown})"


def _reduce(self):
    return (self.__class__, tuple(getattr(self, f) for f in self.__match_args__))


def _refuse(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


_METHODS = dict(
    __init__=_init, __eq__=_eq, __hash__=_hash, __repr__=_repr, __reduce__=_reduce,
    __setattr__=_refuse, __delattr__=_refuse,
)


def value(cls):
    """Class decorator: ``@value``."""
    fields = tuple(cls.__annotations__)
    defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
    dropped = {*defaults, "__dict__", "__weakref__"}
    body = {**_METHODS, **{k: v for k, v in cls.__dict__.items() if k not in dropped}}
    body.update(
        __slots__=fields, __qualname__=cls.__qualname__, __match_args__=fields,
        _defaults=defaults, _key=attrgetter(*fields), _has_post_init=hasattr(cls, "__post_init__"),
    )
    return type(cls)(cls.__name__, cls.__bases__, body)


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
