"""Frozen records: what ``@dataclass(frozen=True)`` gives the engine, with no generated code.

:func:`record` reads a class's annotated fields in order, and the defaults
set in its body, and adds ``__init__`` (positional and keyword arguments,
defaults, then ``__post_init__`` when the class defines one), field-wise
``__eq__`` and ``__hash__``, the dataclass ``__repr__``, a frozen
``__setattr__``/``__delattr__`` and ``as_dict``, the fields in order as
plain data (:func:`_plain`).  Fields are set one by one with
``object.__setattr__``, as a frozen dataclass sets them, so an instance
keeps CPython's compact attribute storage until a :class:`cached_property`
writes to its ``__dict__``.
"""

from operator import attrgetter


def _plain(value):
    """``value`` as plain data: a record as a dict, a tuple or list as a list, all the way down."""
    if isinstance(value, (tuple, list)):
        return [_plain(x) for x in value]
    return value.as_dict() if hasattr(value, "as_dict") else value


class cached_property:
    """``functools.cached_property`` with no lock, as in 3.12: the value shadows it in ``__dict__``."""

    def __init__(self, func):
        self.func, self.attrname, self.__doc__ = func, func.__name__, func.__doc__

    def __set_name__(self, owner, name):
        self.attrname = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


def record(cls):
    """Make ``cls`` a frozen record of its annotated fields."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    fieldset = frozenset(names)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    get = attrgetter(*names)
    setattr_ = object.__setattr__

    def bind(args, kwargs):
        """The field values of a call that does not pass each field by position."""
        if not args and kwargs.keys() == fieldset:
            return map(kwargs.__getitem__, names)
        values = {**defaults, **dict(zip(names, args)), **kwargs}
        if (len(args) > len(names) or values.keys() != fieldset
                or not kwargs.keys().isdisjoint(names[:len(args)])):
            raise TypeError(f"{cls.__qualname__}() takes the fields {', '.join(names)}; "
                            f"got {len(args)} positional and {sorted(kwargs)} by keyword")
        return map(values.__getitem__, names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            setattr_(self, name, value)
        if post_init is not None:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return get(self) == get(other)
        return NotImplemented

    def __hash__(self):
        return hash(get(self) if len(names) > 1 else (get(self),))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({shown})"

    def as_dict(self):
        return {name: _plain(getattr(self, name)) for name in names}

    def __setattr__(self, name, value):
        if type(self) is cls or name in fieldset:
            raise AttributeError(f"cannot assign to field {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in fieldset:
            raise AttributeError(f"cannot delete field {name!r}")
        object.__delattr__(self, name)

    for method in (__init__, __eq__, __hash__, __repr__, as_dict, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    return cls
