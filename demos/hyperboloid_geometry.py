"""Geometry of the loci S(alpha, beta) in the Bell frame.

Identifying [[x1, x2], [x3, x4]] with (x1, x2, x3, x4) in R^4, the matrices
with trace alpha form a hyperplane; inside it, fixing the determinant cuts
out a quadric.  This demo classifies a few loci, samples point clouds, and
draws the two straight-line rulings through a point of the involution
hyperboloid S(0, -1).

Run:  python demos/hyperboloid_geometry.py [out.csv]
"""

import math
import sys

import invgeo as ig

print("=== classification by the sign of alpha^2 - 4 beta ===")
for alpha, beta, note in [
    (0.0, -1.0, "square roots of I2"),
    (1.0, 0.0, "idempotents"),
    (0.0, 0.0, "nilpotents"),
    (0.0, 1.0, "square roots of -I2"),
]:
    surface = ig.classify_quadric(ig.LocusParams(alpha, beta))
    print(f"S({alpha:4.1f}, {beta:4.1f})  {surface.tag.value:10s} "
          f"radius_sq={surface.radius_sq:5.2f}   ({note})")

print()
print("=== Bell coordinates of familiar matrices (alpha = 0) ===")
for m, label in [
    (ig.Mat2(1, 0, 0, -1), "diag(1,-1)"),
    (ig.Mat2(-1, 0, 0, 1), "diag(-1,1)"),
    (ig.Mat2(0, 1, 1, 0), "swap"),
    (ig.principal_axis_point(2.0), "skew [0,2;-2,0]"),
]:
    p = ig.to_bell(m, 0.0)
    print(f"{label:16s} -> ({p.x: .4f}, {p.y: .4f}, {p.z: .4f})")

print()
print("=== the principal section z = 0 is exactly the reflections ===")
for phi in (0.0, math.pi / 3, math.pi / 2):
    m = ig.householder_from_angle(phi)
    p = ig.to_bell(m, 0.0)
    angle = ig.householder_angle(m)
    print(f"phi={phi:5.3f}  bell z = {p.z:+.1e}   recovered angle {angle:5.3f}")

print()
print("=== the asymptotic cone of S(0,-1) is the nilpotent cone ===")
for m in [ig.Mat2(0, 1, 0, 0), ig.Mat2(2, 1, -4, -2), ig.Mat2(0, 1, 1, 0)]:
    print(f"{m.entries()}  on cone: {ig.on_asymptotic_cone(m)}  det = {m.det():.2f}")

print()
print("=== rulings through a point of the involution hyperboloid ===")
point = ig.householder_from_angle(1.2)
pair = ig.generator_directions(point, ig.Mat2(1, 0, 0, 0))
print("U =", pair.u.entries())
print("V =", pair.v.entries())
for t in (-2.0, 1.0, 3.0):
    on_line = ig.generator_point(point, pair.u, t)
    res = (on_line @ on_line).max_diff(ig.Mat2.identity())
    print(f"  (A + {t:+.1f} U)^2 = I2 within {res:.1e}")

print()
print("=== point cloud export ===")
points = ig.sample_surface(ig.LocusParams(0, -1), 24, 9)
rows = ["x,y,z,x1,x2,x3,x4,tag"]
for p in points:
    rows.append(",".join(
        repr(v) for v in (p.bell.x, p.bell.y, p.bell.z, *p.matrix.entries())
    ) + f",{p.tag}")
out = sys.argv[1] if len(sys.argv) > 1 else None
if out:
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {len(points)} surface points to {out}")
else:
    print(f"sampled {len(points)} points; first three rows:")
    for row in rows[:4]:
        print(" ", row)
print("(the same cloud is available via: invgeo sample --alpha 0 --beta -1"
      " --nu 24 --nv 9 --format csv)")
