"""Square roots of +-I2 through the split-quaternion algebra.

Run:  python demos/split_quaternions.py
"""

import math

import invgeo as ig
from invgeo import SplitQuat

one = SplitQuat(1, 0, 0, 0)
i, j, k = SplitQuat.unit("i"), SplitQuat.unit("j"), SplitQuat.unit("k")

print("=== the algebra: i^2 = -1, j^2 = k^2 = ijk = +1 ===")
print("i*j =", (i * j).to_json_dict())
print("j*k =", (j * k).to_json_dict())
print("k*i =", (k * i).to_json_dict())
print("i*j*k =", (i * j * k).to_json_dict())

print()
print("=== causal classes by the modulus w^2 + x^2 - y^2 - z^2 ===")
for q, label in [(SplitQuat(2, 0, 0, 0), "2"), (j, "j"), (i + j, "i+j")]:
    print(f"{label:4s} modulus {q.modulus():+.1f}  {ig.sq_classify(q).value}")

print()
print("=== isomorphism with 2x2 matrices ===")
q = SplitQuat(0.5, -1.0, 0.25, 2.0)
m = ig.to_matrix(q)
print("q       =", q.to_json_dict())
print("matrix  =", m.entries())
print("det(m)  =", m.det(), " == modulus ", q.modulus())
print("back    =", ig.from_matrix(m).to_json_dict())

p = SplitQuat(1.0, 0.5, -0.75, 0.25)
lhs = ig.to_matrix(p * q)
rhs = ig.to_matrix(p) @ ig.to_matrix(q)
print("homomorphism residual:", lhs.max_diff(rhs))

print()
print("=== pure roots of 1 live on x^2 - y^2 - z^2 = -1 ===")
for t, phi in [(0.0, 0.0), (1.0, math.pi / 4), (-2.0, 2.0)]:
    q = ig.unit_root_identity(t, phi)
    surf = q.x**2 - q.y**2 - q.z**2
    print(f"t={t:+.1f} phi={phi:.2f}  q^2 = {ig.sq_mul(q, q).to_json_dict()}"
          f"  surface value {surf:+.3f}")

print()
print("=== pure roots of -1 live on x^2 - y^2 - z^2 = +1 (two sheets) ===")
for t in (0.3, math.pi - 0.3):
    q = ig.unit_root_neg(t, 1.0)
    print(f"t={t:.2f}  x = sec t = {q.x:+.3f}  (sheet sign)  "
          f"q^2 -> w = {ig.sq_mul(q, q).w:+.6f}")

print()
print("=== every such root splits into reflection + quarter turn ===")
t, phi = 0.8, math.pi / 3
coef_h, h, coef_j, jm = ig.decompose_root(t, phi, "identity")
recomposed = coef_h * h + coef_j * jm
direct = ig.root_matrix_identity(t, phi)
print(f"cosh(t) * H(phi) + sinh(t) * J  residual {recomposed.max_diff(direct):.1e}")
print(f"coefficients: cosh {coef_h:.4f}, sinh {coef_j:.4f}")
fam = ig.classify_involution(direct)
print("the matrix root classifies as:", fam.to_json_dict())
