"""Built-in analytic surfaces with exact partials, perturbations, and file input.

Every entry carries closed-form first parameter derivatives so the frame and
curvature pipeline can be exercised without finite-difference error in the
tangents.  Ground-truth fields record the values the toolkit's own
conventions produce (signed contact angle, Weingarten-sign shape operator).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import surface as surf
from .errors import AmplitudeTooLarge, RangeError
from .sampleio import read_samples
from .surface import GridSpec, _raw_frames


@dataclass
class CatalogEntry:
    """An analytic immersion plus metadata.

    ground_truth values are either constants or callables taking the sampled
    points array; notes is a human-readable summary for `catalog list`.
    """

    name: str
    params: dict
    point: callable
    d1: callable = None
    default_topology: tuple = ("periodic", "periodic")
    default_ranges: tuple = ((0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi))
    ground_truth: dict = field(default_factory=dict)
    notes: str = ""
    schema: dict = field(default_factory=dict)
    partials_are_fd: bool = False

    def default_spec(self, n_u=64, n_v=None):
        return GridSpec(n_u, n_v if n_v is not None else n_u,
                        self.default_ranges[0], self.default_ranges[1],
                        self.default_topology[0], self.default_topology[1])

    def sample(self, spec=None, n=64):
        return surf.sample(self, spec if spec is not None else self.default_spec(n))


def clifford():
    """The square torus |z1| = |z2| = sqrt(1/2), doubly periodic on [0, 2pi)^2."""
    c = math.sqrt(2.0) / 2.0

    def point(U, V):
        return np.stack([c * np.cos(U), c * np.sin(U),
                         c * np.cos(V), c * np.sin(V)], axis=-1)

    def d1(U, V):
        zero = np.zeros_like(U)
        fu = np.stack([-c * np.sin(U), c * np.cos(U), zero, zero], axis=-1)
        fv = np.stack([zero, zero, -c * np.sin(V), c * np.cos(V)], axis=-1)
        return fu, fv

    return CatalogEntry(
        name="clifford",
        params={},
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
        schema={},
    )


def r_torus(r):
    """Product torus (cos r e^{iu}, sin r e^{iv}); equals clifford() at r = pi/4.

    Principal curvatures are tan r and -cot r, so H = (tan r - cot r)/2 and
    K = 0 for every admissible r.  Raises RangeError outside
    (0.05, pi/2 - 0.05).
    """
    if not (0.05 < r < math.pi / 2 - 0.05):
        raise RangeError(f"r = {r!r} outside (0.05, pi/2 - 0.05)")
    cr, sr = math.cos(r), math.sin(r)

    def point(U, V):
        return np.stack([cr * np.cos(U), cr * np.sin(U),
                         sr * np.cos(V), sr * np.sin(V)], axis=-1)

    def d1(U, V):
        zero = np.zeros_like(U)
        fu = np.stack([-cr * np.sin(U), cr * np.cos(U), zero, zero], axis=-1)
        fv = np.stack([zero, zero, -sr * np.sin(V), sr * np.cos(V)], axis=-1)
        return fu, fv

    h = (math.tan(r) - 1.0 / math.tan(r)) / 2.0
    return CatalogEntry(
        name="rtorus",
        params={"r": r},
        point=point, d1=d1,
        ground_truth={
            "beta": 0.0,
            "K": 0.0,
            "H_abs": abs(h),
            "area": 4.0 * math.pi ** 2 * sr * cr,
            "willmore": 4.0 * math.pi ** 2 * sr * cr * h ** 2,
        },
        notes="product torus family through the flat minimal torus at r = pi/4",
        schema={"r": {"default": math.pi / 4, "range": (0.05, math.pi / 2 - 0.05)}},
    )


def geodesic_sphere():
    """The great 2-sphere y2 = 0, chart (theta, phi) with the caps cut off.

    The signed contact angle this toolkit computes is pi/2 - theta, i.e.
    arcsin(x2); it is non-constant, and the surface is totally geodesic
    (K = 1, vanishing shape operator).
    """

    def point(U, V):
        return np.stack([np.sin(U) * np.cos(V), np.sin(U) * np.sin(V),
                         np.cos(U), np.zeros_like(U)], axis=-1)

    def d1(U, V):
        zero = np.zeros_like(U)
        fu = np.stack([np.cos(U) * np.cos(V), np.cos(U) * np.sin(V),
                       -np.sin(U), zero], axis=-1)
        fv = np.stack([-np.sin(U) * np.sin(V), np.sin(U) * np.cos(V),
                       zero, zero], axis=-1)
        return fu, fv

    return CatalogEntry(
        name="geodesic_sphere",
        params={},
        point=point, d1=d1,
        default_topology=("chart", "periodic"),
        default_ranges=((0.2, math.pi - 0.2), (0.0, 2.0 * math.pi)),
        ground_truth={
            "beta": lambda pts: np.arcsin(pts[..., 2]),
            "K": 1.0,
            "H": 0.0,
        },
        notes="totally geodesic sphere; non-constant contact angle arcsin(x2)",
        schema={},
    )


def _base_normal(entry, U, V):
    """Gauge-invariant surface normal e3 of an analytic entry at (U, V)."""
    pts = np.asarray(entry.point(U, V), float)
    pts = pts / np.linalg.norm(pts, axis=-1, keepdims=True)
    fu, fv = entry.d1(U, V)
    _, e3, mask, _ = _raw_frames(pts, np.asarray(fu, float),
                                    np.asarray(fv, float))
    return pts, e3, mask


def perturb(entry, mode=(1, 2), amplitude=0.05):
    """Displace an entry along its normal by amplitude*sin(m u)*sin(n v).

    The base entry must be doubly periodic and |amplitude| < 0.2.  The
    derived entry has no analytic partials; downstream code falls back to
    high-order finite differences (partials_are_fd is set).
    """
    if abs(amplitude) >= 0.2:
        raise AmplitudeTooLarge(f"|amplitude| = {abs(amplitude)!r} must be < 0.2")
    if entry.default_topology != ("periodic", "periodic"):
        raise RangeError("perturb requires a doubly periodic base entry")
    m, n = int(mode[0]), int(mode[1])

    def point(U, V):
        pts, e3, mask = _base_normal(entry, U, V)
        if np.any(mask):
            raise RangeError("base entry is contact-degenerate under the bump")
        bump = amplitude * np.sin(m * np.asarray(U)) * np.sin(n * np.asarray(V))
        moved = pts + bump[..., None] * e3
        return moved / np.linalg.norm(moved, axis=-1, keepdims=True)

    label = f"{entry.name}+bump({m},{n})x{amplitude:g}"
    return CatalogEntry(
        name=label,
        params=dict(entry.params, mode=(m, n), amplitude=amplitude),
        point=point, d1=None,
        default_topology=entry.default_topology,
        default_ranges=entry.default_ranges,
        ground_truth={},
        notes=f"normal bump of {entry.name}; partials by finite differences",
        partials_are_fd=True,
    )


def load_samples(path):
    """Read a sample file (native S3SAMPLES or analyzer fields.csv) as a grid.

    The resulting grid has finite-difference partials only.
    """
    return read_samples(path)


_FACTORIES = {
    "clifford": lambda params: clifford(),
    "geodesic_sphere": lambda params: geodesic_sphere(),
    "rtorus": lambda params: r_torus(float(params.get("r", math.pi / 4))),
}

ALIASES = {"r_torus": "rtorus", "sphere": "geodesic_sphere"}


def names():
    return sorted(_FACTORIES)


def build(name, params=None):
    """Instantiate a catalog entry by name; KeyError for unknown names."""
    params = dict(params or {})
    key = ALIASES.get(name, name)
    if key not in _FACTORIES:
        raise KeyError(f"unknown catalog surface {name!r}; known: {names()}")
    entry = _FACTORIES[key](params)
    eps = params.get("eps", params.get("amplitude"))
    if eps is not None and float(eps) != 0.0:
        mode = (int(params.get("m", 1)), int(params.get("n", 2)))
        entry = perturb(entry, mode, float(eps))
    return entry


def describe():
    """Listing data for the CLI."""
    out = []
    for name in names():
        entry = _FACTORIES[name]({})
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
            "params": {k: {"default": v.get("default"),
                           "range": list(v.get("range", ()))}
                       for k, v in entry.schema.items()},
            "topology": list(entry.default_topology),
            "ranges": [list(entry.default_ranges[0]), list(entry.default_ranges[1])],
            "ground_truth": gt,
            "notes": entry.notes,
        })
    return out
