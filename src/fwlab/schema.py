"""Field types of spec descriptors, and the one parser every section goes through.

`build` calls the factory of a descriptor's kind, from a table of
kind -> (factory, {field: type}), on the fields `read` checked by type (a
type ending in " | None" marks a field that may be omitted); values are kept
as written, and an unknown, missing or mistyped field raises a ValueError naming it.
A `Descriptor` subclass reads its annotated fields through the same `read`.
"""
from __future__ import annotations

import numpy as np

# type name: (the Python types a value may have, what errors call it, its range)
_TYPES = {"float": ((int, float), "a number", None), "int": (int, "an integer", None),
          "Positive": ((int, float), "a positive number", lambda v: v > 0),
          "Fraction": ((int, float), "a number in (0, 1]", lambda v: 0 < v <= 1),
          "Count": (int, "a positive integer", lambda v: v >= 1),
          "bool": (bool, "a boolean", None), "object": (dict, "an object", None),
          "Vector": ((list, np.ndarray), "a vector of numbers", None),
          "Matrix": ((list, np.ndarray), "a list of vectors of numbers", None)}


def _show(v) -> str:
    """A scalar's repr; a container's type name, so no long vector is printed."""
    return repr(v) if v is None or isinstance(v, (bool, int, float, str)) else type(v).__name__


def typed(name: str, typ: str, v):
    """v, checked against the type named typ; ValueError names the field."""
    typ = typ.removesuffix(" | None")
    types, what, in_range = _TYPES[typ]
    if (not isinstance(v, types) or (isinstance(v, bool) and typ != "bool")
            or (in_range is not None and not in_range(v))
            or isinstance(v, np.ndarray)  # as a descriptor() hands it out
            and (v.ndim != 1 + (typ == "Matrix") or v.dtype.kind not in "iuf")):
        raise ValueError(f"'{name}' must be {what}, got {_show(v)}")
    if typ == "Matrix" and isinstance(v, list):
        for i, row in enumerate(v):
            typed(f"{name}[{i}]", "Vector", row)
    # one C-level pass over the types; the exact test (which also takes
    # subclasses of int and float) only where that pass finds another type
    elif typ == "Vector" and isinstance(v, list) and not set(map(type, v)) <= {int, float}:
        for i, u in enumerate(v):
            if isinstance(u, bool) or not isinstance(u, (int, float)):
                raise ValueError(f"'{name}' must be {what}; entry {i} is {_show(u)}")
    return v


def read(desc, types: dict, tagged: bool = True) -> dict:
    """The fields of desc, each checked against its type in `types`; a tagged
    descriptor's 'kind' is not one of them."""
    if not isinstance(desc, dict):
        raise ValueError(f"must be an object, got {_show(desc)}")
    unknown = desc.keys() - types.keys() - ({"kind"} if tagged else set())
    if unknown:
        raise ValueError(f"unknown fields {sorted(unknown)}")
    missing = {name for name, typ in types.items() if not typ.endswith(" | None")} - desc.keys()
    if missing:
        raise ValueError(f"missing fields {sorted(missing)}")
    return {name: typed(name, types[name], v) for name, v in desc.items() if name in types}


def kind_of(desc, kinds: dict, what: str):
    """The entry of `kinds` that desc's 'kind' names."""
    if not isinstance(desc, dict):
        raise ValueError(f"{what} must be an object, got {_show(desc)}")
    kind = desc.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ValueError(f"unknown {what} kind {kind!r}")
    return kinds[kind]


def build(desc, kinds: dict, what: str, **args):
    """factory(**fields, **args), for the (factory, types) that desc's kind names."""
    factory, types = kind_of(desc, kinds, what)
    return factory(**read(desc, types), **args)


# Names for the field types of a `Descriptor`'s annotations. A field's
# annotation names its type above, or its class's `nested` table parses it;
# `T | None = None` marks an optional field with no default value.
Positive = float  # a number > 0
Count = int  # an integer >= 1
Fraction = float  # a number in (0, 1]
Vector = list  # a flat list of numbers


class Descriptor:
    """A descriptor parsed once into a read-only object.

    Its fields are the annotated names of its class and bases, and an
    annotated class attribute is that field's default. `nested` maps a field
    that holds an object to what parses it. Not a dataclass: each dataclass
    compiles its generated methods when its module is imported (about 0.8 ms a
    class with CPython 3.11 on a 2-vCPU Xeon), which every fresh launch would pay.
    """

    nested = {}

    def __init_subclass__(cls):
        # a nested descriptor reads as an object; a field with a default may be omitted
        cls._types = {}
        for klass in reversed(cls.__mro__):
            for name, typ in klass.__dict__.get("__annotations__", {}).items():
                typ = "object" if name in cls.nested else typ.removesuffix(" | None")
                cls._types[name] = typ + (" | None" if hasattr(cls, name) else "")

    def __init__(self, desc: dict):
        nested = self.nested
        for name, value in read(desc, self._types).items():
            object.__setattr__(self, name, nested[name](value) if name in nested else value)
        self.check_values()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def check_values(self) -> None:
        """Reject what the field types let through, without the problem."""
