"""Immutable value classes, set up once per class with no generated code:
what ``@dataclass(frozen=True)`` gives, with the hashes and repr text of
the dataclass with the same fields.  Equality compares field tuples, as
dataclasses did up to Python 3.12 (3.13's compare field by field).  One
``operator.attrgetter`` reads the field tuple, and ``__init__`` fills
``__dict__`` in one update."""

from inspect import Parameter, Signature, get_annotations
from operator import attrgetter


class Record:
    """Base of the package's value classes.  A subclass's fields are its own
    annotations, in order, with class attributes as defaults.  Instances
    take them by position or keyword, run ``__post_init__`` (which sets a
    field through ``__dict__``) and refuse assignment and deletion.  They
    compare and hash by their field tuple, or by identity where the class
    statement says ``eq=False``."""

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        kinds = get_annotations(cls)
        cls._fields = cls.__match_args__ = names = tuple(kinds)
        if "__init__" not in vars(cls):
            cls.__signature__ = Signature([Parameter(
                n, Parameter.POSITIONAL_OR_KEYWORD, annotation=kinds[n],
                default=vars(cls).get(n, Parameter.empty)) for n in names],
                return_annotation=None)
        if eq:  # else object's, by identity
            get = attrgetter(*names) if len(names) > 1 else \
                lambda record: tuple(getattr(record, n) for n in names)

            def __eq__(self, other):
                if other.__class__ is self.__class__:
                    return get(self) == get(other)
                return NotImplemented

            cls.__eq__, cls.__hash__ = __eq__, lambda self: hash(get(self))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            bound = self.__signature__.bind(*args, **kwargs)
            bound.apply_defaults()
            args = bound.args
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"{self.__class__.__qualname__}(" + ", ".join(
            f"{n}={getattr(self, n)!r}" for n in self._fields) + ")"
