"""Rescaled cross-sections and holonomy maps.

A section at a regular point x is a disk of radius beta * ||X(x)|| normal
to the field. The holonomy over time t carries section points to the
section rebuilt at phi_t(x); on the suspension it is exactly the torus
automorphism in section coordinates, and on the solid torus it is the
identity on disks while ||X|| shrinks, which is what kills every local
rescaled set there.

Run:  python demos/02_holonomy_maps.py
"""

import numpy as np

from rflowlab import get_flow
from rflowlab.sections import holonomy, holonomy_orbit, make_section, section_point

cat = get_flow("cat_suspension")
x = cat.manifold.wrap((0.31, 0.62, 0.47))
sec = make_section(cat, x, 0.1)
print("section at", x, "radius", sec.radius)

u = np.array([0.004, -0.007])
y = section_point(cat, sec, u)
res = holonomy(cat, sec, 1.0, y)
print("holonomy image coords:", res.image_coords)
print("closed form A u      :", cat.analytic_holonomy(x, 1.0, u))
print("hit time:", res.hit_time, " inside rescaled tube:", res.tube_ok)

# Iterating the map grows offsets with the top eigenvalue of A.
orb = holonomy_orbit(cat, x, 0.1, 1.0, 5, section_point(cat, sec, u / 40))
print("\noffset growth along 5 steps:")
for k, r in enumerate(orb.results, start=1):
    print(f"  n={k}  |u| = {np.linalg.norm(r.image_coords):.6f}")

# On the solid torus the disks travel rigidly while the tolerance decays.
torus = get_flow("solid_torus")
p = torus.manifold.wrap((-0.5, 0.0, 0.0))
secp = make_section(torus, p, 0.1)
q = section_point(torus, secp, (0.004, 0.0))
orb = holonomy_orbit(torus, p, 0.1, 1.0, 12, q)
print("\nsolid torus: transverse offset vs shrinking section radius")
for k, r in enumerate(orb.results, start=1):
    d = torus.manifold.distance(r.target.base, r.image)
    print(f"  n={k:2d}  d = {d:.3e}   radius = {r.target.radius:.3e}")
if orb.error is not None:
    print("stopped at step", orb.error_step, "->", type(orb.error).__name__,
          "(the offset outlives the rescaled radius)")
