"""The benchmark's workloads: seeded inputs, CLI argument lists and output checks.

Every workload drives ``contactgeom.cli.main`` with arguments a user would
type.  Inputs come only from the seed.  Each check raises ``CheckFailed``
with a reason when an output is wrong, and otherwise returns the counters
read from the outputs.  The reason for each check is in the comment next
to it.
"""

import json
import math
import os

import numpy as np

# Finest-level L-infinity bounds and the order threshold of `verify`, copied
# from contactgeom.calculus when the benchmark was defined.  The benchmark
# keeps its own copy so a change to the program cannot loosen its own check.
IDENTITY_BOUNDS = {"curvature": 1e-4, "laplacian": 1e-3,
                   "connection": 1e-3, "gauss": 5e-5}
ORDER_THRESHOLD = 1.7
VERIFY_LEVELS = (64, 128, 256, 512)
# The cap is totally geodesic; the seed commit reads 2e-7 at 193x193.
CAP_MAX_H = 1e-5
CAP_N = 193
CAP_HALF_WIDTH = 0.3
BUMP_AMPLITUDE = (0.045, 0.055)


class CheckFailed(Exception):
    """An output that a correct program would not produce."""


def bump_amplitude(seed):
    lo, hi = BUMP_AMPLITUDE
    return lo + (hi - lo) * np.random.default_rng(seed).random()


def haar_u2(rng):
    """Haar-distributed 2x2 unitary (QR of a complex Gaussian, phases fixed)."""
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def rotated_cap_points(seed, n=CAP_N, half_width=CAP_HALF_WIDTH):
    """Polar-cap chart of the great sphere y1 = 0, rotated by a Haar U(2) matrix.

    The graph chart (sqrt(1-u^2-v^2), 0, u, v) has its tangent plane equal
    to the contact plane at the centre node only.  z -> Az with A in U(2)
    commutes with multiplication by i, so it maps the Reeb field to itself
    and the rotated chart keeps exactly that one contact-degenerate node.
    """
    a = haar_u2(np.random.default_rng(seed))
    s = np.linspace(-half_width, half_width, n)
    U, V = np.meshgrid(s, s, indexing="ij")
    z1 = np.sqrt(1.0 - U ** 2 - V ** 2) + 0j
    z2 = U + 1j * V
    w1 = a[0, 0] * z1 + a[0, 1] * z2
    w2 = a[1, 0] * z1 + a[1, 1] * z2
    pts = np.stack([w1.real, w1.imag, w2.real, w2.imag], axis=-1)
    return s, pts


def write_cap_samples(path, seed):
    """Write the rotated cap as an S3SAMPLES v1 file (chart x chart axes)."""
    s, pts = rotated_cap_points(seed)
    n = len(s)
    fmt = "%.12e"
    header = " ".join(["S3SAMPLES", "v1", str(n), str(n), "chart", "chart",
                       fmt % s[0], fmt % s[-1], fmt % s[0], fmt % s[-1]])
    lines = [header]
    for i in range(n):
        for j in range(n):
            p = pts[i, j]
            lines.append(" ".join(fmt % x for x in (s[i], s[j], p[0], p[1], p[2], p[3])))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# -- output checks -----------------------------------------------------------

def _reject_constant(token):
    raise CheckFailed(f"non-finite number {token} in JSON output")


def load_json(path):
    """Parse a JSON output, rejecting NaN and Infinity tokens."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except FileNotFoundError:
        raise CheckFailed(f"missing output {os.path.basename(path)}") from None
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{os.path.basename(path)} is not JSON: {exc}") from None


def _finite(value):
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return True
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return False


def check_analyze(out, code, n_u, n_v, masked, max_H=None):
    # exit code 0: the CLI reports success only after its own finite check
    if code != 0:
        raise CheckFailed(f"analyze exited {code}")
    report = load_json(os.path.join(out, "report.json"))
    # every number finite: a NaN field would make every summary meaningless
    if not _finite(report):
        raise CheckFailed("report.json holds a non-finite number")
    grid = report.get("grid", {})
    if (grid.get("n_u"), grid.get("n_v")) != (n_u, n_v):
        raise CheckFailed(f"report grid {grid.get('n_u')}x{grid.get('n_v')}, "
                          f"expected {n_u}x{n_v}")
    # the bump has no contact-degenerate node; the cap has exactly its centre
    got = report.get("masked", {}).get("degenerate")
    if got != masked:
        raise CheckFailed(f"masked.degenerate = {got}, expected {masked}")
    # the cap is totally geodesic, so |H| is discretisation error only
    if max_H is not None:
        h = report["fields"]["H"]["max_abs"]
        if not h <= max_H:
            raise CheckFailed(f"H.max_abs = {h:.3e} above {max_H:.1e}")
    # one fields.csv row per node, twelve columns each: a short file means
    # the writer lost nodes.  Streamed, so the check adds little to peak RSS.
    rows = 0
    try:
        with open(os.path.join(out, "fields.csv")) as fh:
            next(fh, None)
            for rows, row in enumerate(fh, start=1):
                if row.count(",") != 11:
                    raise CheckFailed(f"fields.csv line {rows + 1} does not have 12 columns")
    except FileNotFoundError:
        raise CheckFailed("missing output fields.csv") from None
    if rows != n_u * n_v:
        raise CheckFailed(f"fields.csv has {rows} rows, expected {n_u * n_v}")
    return {}


def check_verify(out, identity, code, levels=VERIFY_LEVELS):
    """Check one identity_<name>.json; counts an order-check failure (0 or 1)."""
    # exit 4 is the CLI's "order or bound check failed"; anything else is an error
    if code not in (0, 4):
        raise CheckFailed(f"verify {identity} exited {code}")
    rep = load_json(os.path.join(out, f"identity_{identity}.json"))
    got_levels = [lv.get("n") for lv in rep.get("levels", [])]
    if got_levels != list(levels):
        raise CheckFailed(f"verify {identity} levels {got_levels}, expected {list(levels)}")
    # every level finite: a NaN residual would pass no bound and hide the order
    if not all(_finite([lv.get("linf"), lv.get("l2")]) and lv.get("linf") is not None
               for lv in rep["levels"]):
        raise CheckFailed(f"verify {identity} has a non-finite level")
    # the finest level meets the identity's residual bound
    linf = rep["levels"][-1]["linf"]
    if not linf <= IDENTITY_BOUNDS[identity]:
        raise CheckFailed(f"verify {identity} finest Linf {linf:.3e} above "
                          f"{IDENTITY_BOUNDS[identity]:.0e}")
    order = rep.get("observed_order")
    order_ok = bool(rep.get("at_floor")) or (order is not None and order >= ORDER_THRESHOLD)
    # with the bound met, exit 4 must come from the order check and nothing else
    if (code == 0) != order_ok or bool(rep.get("passed")) != (code == 0):
        raise CheckFailed(f"verify {identity}: exit {code} disagrees with "
                          f"order={order} passed={rep.get('passed')}")
    return {"calculus.order_check_failures": 0 if order_ok else 1}


def check_flow(out, code):
    # exit 0 means converged with the probe passed or not applicable
    if code != 0:
        raise CheckFailed(f"flow exited {code}")
    rep = load_json(os.path.join(out, "flow_report.json"))
    if not _finite(rep):
        raise CheckFailed("flow_report.json holds a non-finite number")
    # the bump descends to the flat minimal torus, so the probe must pass
    if rep.get("converged") is not True:
        raise CheckFailed("flow did not converge")
    status = rep.get("probe", {}).get("status")
    if status != "pass":
        raise CheckFailed(f"probe status {status!r}, expected 'pass'")
    return {"flow.iterations": rep["iterations"]}


# -- workloads ---------------------------------------------------------------

class Workload:
    """One benchmark workload: why it exists, its inputs and one operation."""

    name = ""
    why = ""

    def make_inputs(self, seed, workdir):
        """Build the seeded inputs under workdir; returns a context dict."""
        return {}

    def argvs(self, ctx, out):
        """CLI argument lists making up one operation."""
        raise NotImplementedError

    def check(self, ctx, out, codes):
        """Raise CheckFailed on a wrong output; return counters from the outputs."""
        raise NotImplementedError


def _bump_params(amp):
    return ["--surface", "clifford", "--param", f"eps={amp!r}",
            "--param", "m=1", "--param", "n=2"]


class AnalyzeBump256(Workload):
    name = "analyze_bump256"
    why = ("analyze clifford+bump(1,2) at 256x256: FD tangents, fast sign fill, "
           "dominated by the per-node fields.csv writer")
    n = 256

    def make_inputs(self, seed, workdir):
        return {"amplitude": bump_amplitude(seed)}

    def argvs(self, ctx, out):
        return [["analyze", *_bump_params(ctx["amplitude"]),
                 "--grid", f"{self.n}x{self.n}", "--out", out]]

    def check(self, ctx, out, codes):
        return check_analyze(out, codes[0], self.n, self.n, masked=0)


class AnalyzeCap193(Workload):
    name = "analyze_cap193"
    why = ("analyze a rotated polar-cap sample file: sampleio reading, one-sided "
           "stencils and the per-node BFS sign fill around one degenerate node")

    def make_inputs(self, seed, workdir):
        path = os.path.join(workdir, "cap193.s3")
        write_cap_samples(path, seed)
        return {"path": path}

    def argvs(self, ctx, out):
        return [["analyze", "--surface", ctx["path"], "--out", out]]

    def check(self, ctx, out, codes):
        return check_analyze(out, codes[0], CAP_N, CAP_N, masked=1, max_H=CAP_MAX_H)


class VerifySphere512(Workload):
    name = "verify_sphere512"
    why = ("verify all four identities on geodesic_sphere at 64..512: analytic "
           "partials, dense 512x512 stencils, 16 analyses per operation")
    identities = ("curvature", "laplacian", "connection", "gauss")

    def argvs(self, ctx, out):
        refine = ",".join(str(n) for n in VERIFY_LEVELS)
        return [["verify", "--surface", "geodesic_sphere", "--identity", ident,
                 "--refine", refine, "--out", out] for ident in self.identities]

    def check(self, ctx, out, codes):
        failures = 0
        for ident, code in zip(self.identities, codes):
            failures += check_verify(out, ident, code)["calculus.order_check_failures"]
        return {"calculus.order_check_failures": failures}


class FlowBump32(Workload):
    name = "flow_bump32"
    why = ("flow from clifford+bump(1,2) at 32x32: thousands of small _state "
           "calls in the FD control gradient and the line search")

    def make_inputs(self, seed, workdir):
        return {"amplitude": bump_amplitude(seed)}

    def argvs(self, ctx, out):
        return [["flow", *_bump_params(ctx["amplitude"]),
                 "--grid", "32x32", "--out", out]]

    def check(self, ctx, out, codes):
        return check_flow(out, codes[0])


WORKLOADS = {w.name: w for w in (AnalyzeBump256(), AnalyzeCap193(),
                                 VerifySphere512(), FlowBump32())}
