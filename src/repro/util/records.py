"""A second, unchecked constructor for frozen record classes.

A run builds one trace record per access, operation and synchronization, and
one :class:`~repro.explore.decisions.Decision` per choice point.  They are
frozen dataclasses, and a frozen ``__init__`` stores every field through
``object.__setattr__`` — ≈ 1.7 µs for nine fields, most of what recording an
access cost.  :func:`trusted_build` gives such a class an in-package
constructor (what ``Fabric.send`` does inline for messages): same object, no
checks, for values the caller validated or made itself.
"""

from __future__ import annotations

import dataclasses
from typing import Type, TypeVar

T = TypeVar("T")


def trusted_build(cls: Type[T]) -> Type[T]:
    """Class decorator: add ``cls._build(*values)`` to a frozen slots dataclass.

    ``cls._build(v0, v1, ...)`` takes one value per field, in field order, and
    returns what ``cls(v0, v1, ...)`` returns — an instance of *cls* itself,
    equal to it, hashing, printing, pickling and refusing assignment alike —
    without ``__post_init__`` and in about a quarter of the time.  The
    public constructor stays the place where outside values are checked.

    The record is born as an instance of a private subclass that adds no slot
    and stores attributes the ordinary way, filled field by field, and is then
    handed over to *cls* by assigning its ``__class__`` — legal because the
    two layouts are identical.  ``_build`` is generated, the way
    ``dataclasses`` generates ``__init__``: one function with one parameter
    per field, so a record costs one Python frame.  This needs
    ``slots=True``: on a ``__dict__``-backed class CPython >= 3.11 answers
    both this assignment and the shorter ``__dict__.update(...)`` by
    materialising the instance dictionary it otherwise never builds, one more
    tracked object per record kept.
    """
    if "__slots__" not in vars(cls) or not cls.__dataclass_params__.frozen:
        raise TypeError(f"{cls.__name__} must be a frozen dataclass with slots=True")
    names = [field.name for field in dataclasses.fields(cls)]
    unfrozen = type(
        f"_Unfrozen{cls.__name__}",
        (cls,),
        {
            "__slots__": (),
            # Both, or the type keeps the frozen pair's slow slot.
            "__setattr__": object.__setattr__,
            "__delattr__": object.__delattr__,
        },
    )
    stores = "".join(f"    __record__.{name} = {name}\n" for name in names)
    source = (
        f"def _build({', '.join(names)}):\n"
        "    __record__ = __new__(__unfrozen__)\n"
        f"{stores}"
        "    __record__.__class__ = __cls__\n"
        "    return __record__\n"
    )
    namespace = {"__new__": object.__new__, "__unfrozen__": unfrozen, "__cls__": cls}
    exec(source, namespace)
    cls._build = staticmethod(namespace["_build"])
    return cls
