"""Built-in analytic surfaces with exact partials, and their normal bumps.

Every entry carries closed-form first parameter derivatives so the frame and
curvature pipeline can be exercised without finite-difference error in the
tangents.  Ground-truth fields record the values the toolkit's own
conventions produce (signed contact angle, Weingarten-sign shape operator).
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import ambient
from . import surface as surf
from .errors import RangeError
from .surface import GridSpec, _moved_points, _onto_sphere, _unit_normal


@dataclass(frozen=True)
class Param:
    """A catalog parameter: default, open range (lo, hi), integer or not."""

    default: float
    range: tuple
    integer: bool = False


RTORUS_SCHEMA = {"r": Param(math.pi / 4, (0.05, math.pi / 2 - 0.05))}
# the normal bump eps*sin(m u)*sin(n v) of every doubly periodic entry; eps = 0
# leaves it unbumped, and a mode of 100 needs over 200 nodes per axis
BUMP_SCHEMA = {"eps": Param(0.0, (-0.2, 0.2)),
               "m": Param(1, (0, 100), integer=True),
               "n": Param(2, (0, 100), integer=True)}


def _read_params(owner, schema, raw):
    """Checked values of owner's parameters from raw numbers or strings, a
    missing one at its default.  RangeError names owner and the parameter for
    an unknown name, a non-number, a value outside its open range (NaN
    included) and a non-integer value of an integer parameter."""
    for name in sorted(set(raw) - set(schema)):
        raise RangeError(f"unknown parameter {name!r} for {owner}; "
                         f"accepted: {', '.join(schema) or 'none'}")
    values = {}
    for name, param in schema.items():
        value = raw.get(name, param.default)
        try:
            x = float(value)
        except (TypeError, ValueError):
            x = math.nan  # not a number: fails the range test below
        lo, hi = param.range
        if not (lo < x < hi and (x.is_integer() or not param.integer)):
            kind = "an integer" if param.integer else "a number"
            raise RangeError(f"{owner} parameter {name} = {value!r} is not "
                             f"{kind} in ({lo!r}, {hi!r})")
        values[name] = int(x) if param.integer else x
    return values


@dataclass
class CatalogEntry:
    """An analytic immersion plus metadata.

    ground_truth values are either constants or callables taking the sampled
    points array; notes is a human-readable summary for `catalog list`.
    """

    name: str
    point: callable
    d1: callable = None
    default_topology: tuple = ("periodic", "periodic")
    default_ranges: tuple = ((0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi))
    ground_truth: dict = field(default_factory=dict)
    notes: str = ""

    def default_spec(self, n_u=64, n_v=None):
        return GridSpec(n_u, n_v if n_v is not None else n_u,
                        self.default_ranges[0], self.default_ranges[1],
                        self.default_topology[0], self.default_topology[1])

    def sample(self, spec=None, n=64):
        return surf.sample(self, spec if spec is not None else self.default_spec(n))


def _product_torus_maps(a, b):
    """point and d1 of (a e^{iu}, b e^{iv}); each trig factor depends on one
    parameter, so on an open mesh it is evaluated once per axis node."""

    def point(U, V):
        return ambient.stack4(a * np.cos(U), a * np.sin(U),
                              b * np.cos(V), b * np.sin(V))

    def d1(U, V):
        zero = np.zeros(np.broadcast(U, V).shape)
        fu = ambient.stack4(-a * np.sin(U), a * np.cos(U), zero, zero)
        fv = ambient.stack4(zero, zero, -b * np.sin(V), b * np.cos(V))
        return fu, fv

    return point, d1


def clifford():
    """The square torus |z1| = |z2| = sqrt(1/2), doubly periodic on [0, 2pi)^2."""
    c = math.sqrt(2.0) / 2.0
    point, d1 = _product_torus_maps(c, c)

    return CatalogEntry(
        name="clifford",
        point=point, d1=d1,
        ground_truth={
            "beta": 0.0,
            "K": 0.0,
            "H": 0.0,
            "shape_operator": np.array([[0.0, -1.0], [-1.0, 0.0]]),
            "area": 2.0 * math.pi ** 2,
            "willmore": 0.0,
        },
        notes="flat minimal torus; contact angle identically 0",
    )


def r_torus(r=RTORUS_SCHEMA["r"].default):
    """Product torus (cos r e^{iu}, sin r e^{iv}); equals clifford() at r = pi/4.

    Principal curvatures are tan r and -cot r, so H = (tan r - cot r)/2 and
    K = 0; an r outside RTORUS_SCHEMA's range raises RangeError.
    """
    r = _read_params("rtorus", RTORUS_SCHEMA, {"r": r})["r"]
    cr, sr = math.cos(r), math.sin(r)
    point, d1 = _product_torus_maps(cr, sr)

    h = (math.tan(r) - 1.0 / math.tan(r)) / 2.0
    return CatalogEntry(
        name="rtorus",
        point=point, d1=d1,
        ground_truth={
            "beta": 0.0,
            "K": 0.0,
            "H_abs": abs(h),
            "area": 4.0 * math.pi ** 2 * sr * cr,
            "willmore": 4.0 * math.pi ** 2 * sr * cr * h ** 2,
        },
        notes="product torus family through the flat minimal torus at r = pi/4",
    )


def geodesic_sphere():
    """The great 2-sphere y2 = 0, chart (theta, phi) with the caps cut off.

    The signed contact angle this toolkit computes is pi/2 - theta, i.e.
    arcsin(x2); it is non-constant, and the surface is totally geodesic
    (K = 1, vanishing shape operator).
    """

    def point(U, V):
        su, sv = np.sin(U), np.sin(V)
        cu, cv = np.cos(U), np.cos(V)
        return ambient.stack4(su * cv, su * sv, cu, 0.0)

    def d1(U, V):
        su, sv = np.sin(U), np.sin(V)
        cu, cv = np.cos(U), np.cos(V)
        fu = ambient.stack4(cu * cv, cu * sv, -su, 0.0)
        fv = ambient.stack4(-su * sv, su * cv, 0.0, 0.0)
        return fu, fv

    return CatalogEntry(
        name="geodesic_sphere",
        point=point, d1=d1,
        default_topology=("chart", "periodic"),
        default_ranges=((0.2, math.pi - 0.2), (0.0, 2.0 * math.pi)),
        ground_truth={
            "beta": lambda pts: np.arcsin(pts[2]),
            "K": 1.0,
            "H": 0.0,
        },
        notes="totally geodesic sphere; non-constant contact angle arcsin(x2)",
    )


def perturb(entry, mode, eps):
    """Displace an entry along its normal by eps*sin(m u)*sin(n v).

    The base entry must be doubly periodic, and eps and mode = (m, n) must
    fit BUMP_SCHEMA.  The derived entry has no analytic partials (d1 is
    None); downstream code falls back to high-order finite differences.
    The bump moves each point along the base's unit normal, which is
    continuous across contact degeneracy, so the base's frames are not
    formed.  The point map raises RangeError, naming the parameter, on an
    n_u x n_v mesh that cannot carry the mode: m >= n_u/2 or n >= n_v/2.
    """
    values = _read_params(entry.name, BUMP_SCHEMA,
                          {"eps": eps, "m": mode[0], "n": mode[1]})
    if entry.default_topology != ("periodic", "periodic"):
        raise RangeError("perturb requires a doubly periodic base entry")
    eps, m, n = values["eps"], values["m"], values["n"]

    def point(U, V):
        for name, k, nodes, axis in zip("mn", (m, n), np.broadcast(U, V).shape, "uv"):
            if not k < nodes / 2:
                raise RangeError(f"{entry.name} parameter {name} = {k} is not below "
                                 f"half the grid's {nodes} nodes along {axis}")
        pts = _onto_sphere(np.asarray(entry.point(U, V), float))
        e3 = _unit_normal(pts, *entry.d1(U, V))
        bump = eps * np.sin(m * np.asarray(U)) * np.sin(n * np.asarray(V))
        return _moved_points(pts, e3, bump)

    label = f"{entry.name}+bump({m},{n})x{eps!r}"
    return CatalogEntry(
        name=label,
        point=point, d1=None,
        default_topology=entry.default_topology,
        default_ranges=entry.default_ranges,
        ground_truth={},
        notes=f"normal bump of {entry.name}; partials by finite differences",
    )


# name -> (factory, the factory's parameters and, if doubly periodic, the bump's)
_FACTORIES = {"clifford": (clifford, BUMP_SCHEMA),
              "geodesic_sphere": (geodesic_sphere, {}),
              "rtorus": (r_torus, {**RTORUS_SCHEMA, **BUMP_SCHEMA})}

ALIASES = {"r_torus": "rtorus", "sphere": "geodesic_sphere"}


def names():
    return sorted(_FACTORIES)


def build(name, params=None):
    """Instantiate a catalog entry by name; RangeError for unknown names.

    params lists (name, value) pairs, each value a number or a string.  They
    are read against the name's schema, and RangeError names a bad one, or
    one the pairs repeat.  A non-zero eps bumps the entry in mode (m, n).
    """
    key = ALIASES.get(name, name)
    if key not in _FACTORIES:
        raise RangeError(f"unknown catalog surface {name!r}; known: {names()}")
    factory, schema = _FACTORIES[key]
    raw = {}
    for pname, value in params or ():
        if pname in raw:
            raise RangeError(f"{key} parameter {pname} is given more than once")
        raw[pname] = value
    values = _read_params(key, schema, raw)
    entry = factory(**{k: v for k, v in values.items() if k not in BUMP_SCHEMA})
    if values.get("eps"):
        entry = perturb(entry, (values["m"], values["n"]), values["eps"])
    return entry


def describe():
    """Listing data for the CLI."""
    out = []
    for name, (factory, schema) in sorted(_FACTORIES.items()):
        entry = factory()
        gt = {}
        for key, val in entry.ground_truth.items():
            if isinstance(val, (int, float)):
                gt[key] = float(val)
            elif isinstance(val, np.ndarray):
                gt[key] = val.tolist()
            else:
                gt[key] = "closed form"
        out.append({
            "name": name,
            "params": {k: asdict(p) for k, p in schema.items()},
            "topology": list(entry.default_topology),
            "ranges": [list(entry.default_ranges[0]), list(entry.default_ranges[1])],
            "ground_truth": gt,
            "notes": entry.notes,
        })
    return out
