"""Tour of the built-in flows and the event-aware integrator.

Three reference flows live in the catalog:

* ``solid_torus``    - speed profile vanishing on one disk (singular),
* ``cat_suspension`` - unit-speed mapping torus of [[2,1],[1,1]],
* ``rigid_rotation`` - constant drift, the non-expansive control.

Run:  python demos/01_flows_and_orbits.py
"""

import math

import numpy as np

from rflowlab import field_norm, get_flow
from rflowlab.integrate import flow_map, orbit

for name in ("solid_torus", "cat_suspension", "rigid_rotation"):
    flow = get_flow(name)
    print(f"== {name} ==")
    print("  singular set:", flow.singular_set_description)
    print("  rescale constants: L = %.4f, beta0 = %.3f"
          % (flow.rescale.L, flow.rescale.beta0))
    if flow.known_entropy is not None:
        print("  known entropy: %.4f" % flow.known_entropy)

# The solid torus decays toward its singular disk but never reaches it.
torus = get_flow("solid_torus")
x = torus.manifold.wrap((-0.5, 0.2, 0.0))
print("\nsolid torus orbit from x =", x)
for t in (0.0, 1.0, 3.0, 6.0, 10.0):
    p = flow_map(torus, x, t)
    print(f"  t={t:5.1f}  x-coord={p.coords[0]: .6e}  ||X||={field_norm(torus, p):.3e}")

# The suspension applies the torus automorphism at every unit of time.
cat = get_flow("cat_suspension")
y = cat.manifold.wrap((0.2, 0.3, 0.0))
print("\ncat suspension, automorphism applied per unit time:")
for t in (1.0, 2.0, 3.0):
    p = flow_map(cat, y, t)
    a = np.linalg.matrix_power(np.array([[2, 1], [1, 1]]), int(t))
    exact = (a @ np.array([0.2, 0.3])) % 1.0
    print(f"  t={t}: numeric v={np.round(p.coords[:2], 6)}  exact v={np.round(exact, 6)}")

# Group property sanity: composing segments equals one long segment.
a, b = 0.7, 1.9
one = flow_map(cat, flow_map(cat, y, a), b)
two = flow_map(cat, y, a + b)
print("\ngroup property gap:", cat.manifold.distance(one, two))

# Dense sampling of a rigid orbit: transverse coordinates never move.
rigid = get_flow("rigid_rotation")
z = rigid.manifold.wrap((0.0, 0.5, 0.0))
pts = orbit(rigid, z, np.linspace(0.0, 4.0, 9))
print("\nrigid rotation, (y, z) along one period:",
      {tuple(np.round(p.coords[1:], 12)) for p in pts})
print("eval_field at the singular disk:",
      torus.field(torus.manifold.wrap((0.0, 0.1, 0.0)).coords))
print("x(ln 2) from 0.5 =", flow_map(torus, torus.manifold.wrap((0.5, 0, 0)),
                                     math.log(2.0)).coords[0], "(exact: 1.0)")
