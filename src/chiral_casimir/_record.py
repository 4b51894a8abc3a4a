"""The base of the package's frozen records.

A record is a small immutable class with named fields: CavityConfig,
ReducedPoint and SeriesControl in engine, the sweep specs in cli and the
oracle's QuadControl and CompareReport.  Each subclass names its fields in
_fields, keeps its defaults as class attributes and, in its own __init__,
after its checks, sets each field with _setattr (object.__setattr__).  The
base forbids assignment and deletion, and gives equality, hash, repr and
__match_args__ over _fields as a frozen dataclass would, without importing
dataclasses (and with it inspect, ast, dis and tokenize) on every import of
the package.

Setting the fields one by one, as the dataclasses did, keeps them in the
instance's inline values.  Filling self.__dict__ instead (by update or by
item) builds the dict object at construction, and CPython 3.11 then leaves
every read of a field unspecialised: 35-50 ns in place of about 10 ns,
which cost the certify and domain_points benchmarks 3-8% of their speed.

A record may keep values derived from its fields outside _fields, as
engine._units does on CavityConfig: the effective angle, the reduced
temperature and the fold of the angle once per config (_theta_tau), and
with them the Faraday slope factor and the factor to physical units once
per quantity (_energy_units, _pressure_units), which a sweep row of the
cli reads back.  Set by _setattr and read as attributes, never through
__dict__, they change neither equality, hash nor repr.  Pickling and
copy.copy fill the dict directly.
"""

_setattr = object.__setattr__


class _Record:
    """Frozen record over the field names in _fields."""

    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls._fields

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"
