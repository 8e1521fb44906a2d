"""Grid-refinement verification of the moving-frame identities.

On a minimal surface with signed contact angle beta and frame derivatives
beta_1 = d beta(e1), beta_2 = d beta(e2):

    K          = 1 - (beta_1 + 1)^2 - beta_2^2
    Lap(beta)  = -tan(beta) ((beta_1 + 2)^2 + beta_2^2)
    <D_{e1} e2, e1> = tan(beta) beta_2
    <D_{e2} e2, e1> = -tan(beta) (beta_1 + 2)

plus the Gauss-equation agreement between the metric-only (Brioschi) and
shape-operator curvatures.  Residual norms should shrink at order >= 1.7
under refinement; the flat torus satisfies everything to roundoff.
"""

from contactgeom import clifford, geodesic_sphere
from contactgeom.calculus import refinement_study

LEVELS = [32, 64, 128]

for entry in (geodesic_sphere(), clifford()):
    print(f"—— {entry.name} ——")
    for ident in ("curvature", "laplacian", "connection", "gauss"):
        rep = refinement_study(entry, ident, LEVELS)
        lv = "  ".join(f"n={level.n}: {level.linf:.2e}" for level in rep.levels)
        order = "at roundoff floor" if rep.order is None else f"order {rep.order:.2f}"
        print(f"  {ident:10s} {lv}   [{order}]")
    print()
