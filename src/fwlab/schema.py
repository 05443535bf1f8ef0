"""Field types of spec sections, and the one base class every section derives from.

A section's schema is its class's annotated fields: `field_types` reads them,
and `kinds` makes a table of kind -> class from them. `Tagged` is the one
section base: building one, by a Python call or by `build` from a spec's
descriptor, checks each field with `read` (a type ending in " | None" marks a
field that may be omitted), so an unknown, missing or mistyped field raises a
ValueError naming it. It keeps each value as written, but for a `Vector` or
`Matrix` field, which `typed` reads once as a private, finite, read-only
float64 copy. Its `descriptor()` renders the fields back under the class's
`kind`.
"""
from __future__ import annotations

import math

import numpy as np

# type name: (the Python types a value may have, what errors call it, its range)
_TYPES = {"float": ((int, float), "a finite number", lambda v: -math.inf < v < math.inf),
          "int": (int, "an integer", None),
          "Positive": ((int, float), "a finite positive number", lambda v: 0 < v < math.inf),
          "NonNegative": ((int, float), "a finite number >= 0", lambda v: 0 <= v < math.inf),
          "Fraction": ((int, float), "a number in (0, 1]", lambda v: 0 < v <= 1),
          "Order": ((int, float), "a number in (1, 2]", lambda v: 1 < v <= 2),
          "Count": (int, "a positive integer", lambda v: v >= 1),
          "Seed": (int, "a non-negative integer", lambda v: v >= 0),
          "bool": (bool, "a boolean", None), "object": (dict, "an object", None),
          "Vector": ((list, np.ndarray), "a vector of numbers", None),
          "Matrix": ((list, np.ndarray), "a list of vectors of numbers", None),
          # a spec file's own fields: a section it may leave null, the start
          # point, the file-name-safe experiment name and the check list
          "Section": ((dict, type(None)), "an object or null", None),
          "X0": ((list, str, type(None)), "a vector, 'vertex(i)' or 'sample(seed)'", None),
          "Name": (str, "a nonempty string with no '/', '\\', space or NUL",
                   lambda v: v != "" and not any(ch in v for ch in "/\\ \0")),
          "Checks": (list, "a list of objects", None)}
_TYPES["Index"] = _TYPES["Seed"]  # row 0 is a trace's first


def _show(v) -> str:
    """A scalar's repr; a container's type name, so no long vector is printed."""
    return repr(v) if v is None or isinstance(v, (bool, int, float, str)) else type(v).__name__


def typed(name: str, typ: str, v):
    """v, checked against the type named typ; ValueError names the field. A
    `Vector` or `Matrix` comes back as a private, finite, read-only float64
    copy, so a caller's later write cannot reach it and a descriptor that
    hands it out cannot write to it."""
    typ = typ.removesuffix(" | None")
    _check(name, typ, v)
    if typ not in ("Vector", "Matrix"):
        return v
    try:
        arr = np.array(v, dtype=float)
    except OverflowError:  # an integer past float64's range, which json reads
        arr = None
    if arr is None or not np.isfinite(arr).all():
        raise ValueError(f"'{name}' contains non-finite entries")
    arr.flags.writeable = False
    return arr


def _check(name: str, typ: str, v) -> None:
    """Raise where v is not of the type named typ; a `Matrix` list's rows are
    checked as vectors, each as given, and must be of one length. A number
    type rejects an integer that no float64 holds, which json reads from a
    long integer literal, without printing its digits."""
    types, what, in_range = _TYPES[typ]
    if types == (int, float) and isinstance(v, int) and not isinstance(v, bool):
        try:
            float(v)
        except OverflowError:
            raise ValueError(f"'{name}' must be {what}, got an integer past "
                             f"float64's range") from None
    if (not isinstance(v, types) or (isinstance(v, bool) and typ != "bool")
            or (in_range is not None and not in_range(v))
            or isinstance(v, np.ndarray)  # as a descriptor() hands it out
            and (v.ndim != 1 + (typ == "Matrix") or v.dtype.kind not in "iuf")):
        raise ValueError(f"'{name}' must be {what}, got {_show(v)}")
    if typ == "Matrix" and isinstance(v, list):
        for i, row in enumerate(v):
            _check(f"{name}[{i}]", "Vector", row)
            if len(row) != len(v[0]):
                raise ValueError(f"'{name}' rows differ in length: row 0 has "
                                 f"{len(v[0])} entries, row {i} has {len(row)}")
    # one C-level pass over the types; the exact test (which also takes
    # subclasses of int and float) only where that pass finds another type
    elif typ == "Vector" and isinstance(v, list) and not set(map(type, v)) <= {int, float}:
        for i, u in enumerate(v):
            if isinstance(u, bool) or not isinstance(u, (int, float)):
                raise ValueError(f"'{name}' must be {what}; entry {i} is {_show(u)}")


def read(desc, types: dict) -> dict:
    """The fields of desc, each checked against its type in `types`."""
    if not isinstance(desc, dict):
        raise ValueError(f"must be an object, got {_show(desc)}")
    unknown = desc.keys() - types.keys()
    if unknown:  # a Python-built spec may hold a key that is not a string
        raise ValueError(f"unknown fields {sorted(unknown, key=str)}")
    missing = {name for name, typ in types.items() if not typ.endswith(" | None")} - desc.keys()
    if missing:
        raise ValueError(f"missing fields {sorted(missing)}")
    return {name: typed(name, types[name], v) for name, v in desc.items() if name in types}


def build(desc, kinds: dict, what: str):
    """The section desc's 'kind' names in a `kinds` table, built from desc's
    other fields; the class reads them, so errors name the field."""
    if not isinstance(desc, dict):
        raise ValueError(f"{what} must be an object, got {_show(desc)}")
    kind = desc.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ValueError(f"unknown {what} kind {kind!r}")
    return kinds[kind].from_dict({name: v for name, v in desc.items() if name != "kind"})


# Names for the field types of a section's annotations. A field's
# annotation names its type above, or its class's `nested` table parses it;
# `T | None = None` marks an optional field with no default value.
Positive = float  # a finite number > 0
NonNegative = float  # a finite number >= 0
Count = int  # an integer >= 1
Seed = int  # an integer >= 0, as numpy's generators take
Index = int  # a trace row's k, an integer >= 0
Fraction = float  # a number in (0, 1]
Order = float  # a curvature order sigma in (1, 2], the range the paper's rates cover
Vector = list  # a flat list of numbers, held as a 1-D float64 array
Matrix = list  # a list of vectors of numbers of one length, held as a 2-D one
Section = dict  # an object, or null for an omitted section
X0 = list  # a vector, or the string 'vertex(i)' or 'sample(seed)'
Name = str  # a nonempty string with no '/', '\\', space or NUL
Checks = list  # a list of objects


def field_types(cls, nested=()) -> dict:
    """{field: type name} of cls's annotated fields, its bases' first. A field
    in `nested` reads as an object; one with a class-level default may be
    omitted, so its type ends in " | None"."""
    types = {}
    for klass in reversed(cls.__mro__):
        for name, typ in klass.__dict__.get("__annotations__", {}).items():
            typ = "object" if name in nested else typ.removesuffix(" | None")
            types[name] = typ + (" | None" if hasattr(cls, name) else "")
    return types


def field_dict(obj) -> dict:
    """obj's fields by name, in declaration order: a shallow dict whose values
    are obj's own, not the deep copies `dataclasses.asdict` makes of a
    spec's long lists."""
    return {name: getattr(obj, name) for name in field_types(type(obj))}


def kinds(*classes) -> dict:
    """The table `build` reads: each section class under its `kind`."""
    return {cls.kind: cls for cls in classes}


class Tagged:
    """A spec section as a read-only object: its fields are the annotated ones
    of its class and bases, and an annotated class attribute is that field's
    default. `nested` maps a field that holds an object to what parses it.

    Fields come by keyword or by position, in declaration order, and are read
    once through `read`, so a Python call gets a spec's checks and messages;
    `check_values` then rejects, or normalizes, what their types let through.
    An error of a `nested` parser is prefixed with its field's name, so a fault
    inside a nested object says which object holds it. The descriptor tags the
    fields with the class's `kind`. Not a dataclass:
    each dataclass compiles its generated methods when its module is imported
    (about 0.4 ms a class with CPython 3.11 on a 2-vCPU Xeon), which every
    fresh launch would pay.
    """

    kind = ""
    nested = {}

    def __init_subclass__(cls):
        cls._types = field_types(cls, cls.nested)

    def __init__(self, /, *args, **fields):  # so a field named 'self' is unknown
        if len(args) > len(self._types):
            raise ValueError(f"too many fields: {len(args)} values for {list(self._types)}")
        named = dict(zip(self._types, args))
        if twice := named.keys() & fields.keys():
            raise ValueError(f"fields given twice {sorted(twice)}")
        nested = self.nested
        for name, value in read({**named, **fields}, self._types).items():
            if name in nested:
                try:
                    value = nested[name](value)
                except ValueError as exc:  # say which object holds the fault
                    raise ValueError(f"{name}: {exc}") from None
            object.__setattr__(self, name, value)
        self.check_values()

    @classmethod
    def from_dict(cls, fields: dict):
        """cls(**fields), but a key that is not a string, which no keyword can
        be, is rejected by `read` with the other unknown fields, where the
        call would raise a TypeError naming neither."""
        if not all(isinstance(name, str) for name in fields):
            read(fields, cls._types)  # raises, as no such key names a field
        return cls(**fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={v!r}" for name, v in field_dict(self).items())
        return f"{type(self).__name__}({fields})"

    def check_values(self) -> None:
        """Reject what the field types let through, without the problem."""

    def descriptor(self) -> dict:
        # the fields as the object holds them: a spec's int stays an int
        return {"kind": self.kind, **field_dict(self)}
