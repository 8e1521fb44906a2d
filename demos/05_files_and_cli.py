"""Sample files and the command-line interface.

Grids round-trip through the native sample format; the analyzer's
fields.csv is also accepted back as input.  The CLI mirrors the library
and is scriptable through its exit codes.  Everything the demo writes
lives in a temporary directory that is deleted when the demo ends.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from contactgeom import clifford, contact_angle_field
from contactgeom.cli import main as cli
from contactgeom.sampleio import read_samples, write_samples

with tempfile.TemporaryDirectory(prefix="contactgeom_demo_") as workdir:
    tmp = Path(workdir)
    grid = clifford().sample(n=32)
    write_samples(grid, tmp / "clifford.s3")
    print("wrote", tmp / "clifford.s3")
    back = read_samples(str(tmp / "clifford.s3"))
    print("round trip: max point deviation =",
          f"{np.max(np.abs(back.points - grid.points)):.2e},",
          "max|beta| =", f"{np.max(np.abs(contact_angle_field(back).beta)):.2e}")

    print("\nCLI analyze on the sample file:")
    rc = cli(["analyze", "--surface", str(tmp / "clifford.s3"), "--out", str(tmp)])
    print("  exit code:", rc)
    report = json.loads((tmp / "report.json").read_text())
    print("  beta max:", report["fields"]["beta"]["max"], " area:", report["area"])
    # the fields.csv analyze wrote is itself a sample file of the same grid
    again = read_samples(str(tmp / "fields.csv"))
    print("  fields.csv read back: max point deviation from the sample file =",
          f"{np.max(np.abs(again.points - back.points)):.2e}")

    print("\nCLI identity verification with refinement:")
    rc = cli(["verify", "--surface", "geodesic_sphere", "--identity", "curvature",
              "--refine", "32,64,128", "--out", str(tmp)])
    print("  exit code:", rc)

print("\nCLI catalog listing:")
cli(["catalog", "list"])
