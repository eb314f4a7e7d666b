"""One base for the immutable value types.

A subclass names its fields in ``__slots__``, in order.  The base gives it
what a frozen dataclass would, without generating code at import time:

* ``__init__`` from the fields, positionally or by keyword, for a class
  that does not define its own;
* the field ``repr``, ``Permutation(word=(2, 1))``;
* ``==`` between values of one class, by their field tuples, and ``hash``
  of that tuple;
* ``AttributeError`` on assignment or deletion (a custom ``__init__``
  passes its fields to the base's, or sets them with
  ``object.__setattr__``);
* pickling and copying.

``sorted_get`` reads one key from a field of (key, value) pairs kept
sorted, as the polynomial grids and the rc-index keep theirs.  ``need`` is
the one rule for every order, count and depth argument of an entry.
"""

from bisect import bisect_left
from operator import attrgetter


def sorted_get(pairs: tuple, key, order=lambda key: key):
    """The value paired with ``key`` in ``pairs``, which are sorted by
    ``order`` of their keys, or 0 when the key is absent."""
    i = bisect_left(pairs, order(key), key=lambda pair: order(pair[0]))
    return pairs[i][1] if i < len(pairs) and pairs[i][0] == key else 0


def need(name: str, value, least: int) -> None:
    """ValueError unless ``value`` is an ``int``, not a bool, of at least ``least``."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int of at least {least}, got {value!r}")
    if value < least:
        raise ValueError(f"need {name} >= {least}")


class Value:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # The field tuple, read in C: an attrgetter of one name returns
        # the value itself, so that one is wrapped.
        get = attrgetter(*cls.__slots__)
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda v: (get(v),))

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs:
            args += tuple(kwargs.pop(name) for name in names[len(args):] if name in kwargs)
        if kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        self.__setstate__(args)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return self._values(self)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)
