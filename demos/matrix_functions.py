"""f(A) by two-point interpolation, closed-form square roots, and how many exist.

Run:  python demos/matrix_functions.py
"""

import invgeo as ig
from invgeo.errors import FunctionUndefinedAtEigenvalue

print("=== f(A) = f(l1) I + f[l1, l2] (A - l1 I) ===")
for m, label in [
    (ig.Mat2.diag(1, 4), "diag(1,4)"),
    (ig.Mat2(4, 1, 0, 4), "[[4,1],[0,4]]"),
    (ig.Mat2(1, 1, 0, 1 + 1e-7), "[[1,1],[0,1+1e-7]]"),
    (ig.Mat2(0, 1, -2, 3), "[[0,1],[-2,3]]"),
]:
    lam1, lam2 = ig.eigen2(m)
    root = ig.matrix_function(m, ig.SQRT)
    print(f"{label:20s} eigenvalues ({lam1:.8g}, {lam2:.8g})"
          f"  slope sqrt[l1, l2] = {ig.SQRT.divided_difference(lam1, lam2):.6g}")
    print(f"{'':20s} sqrt = {root.entries()}"
          f"  residual {(root @ root).max_diff(m):.1e}")
print("on a Jordan block the slope is f'(l): the divided difference at l1 = l2")

print()
print("=== without a divided difference, f(A) takes the secant ===")
plain = ig.ScalarFunction(lambda x: x ** 3, name="cube")
m = ig.Mat2(1, 2, 0, 3)
print("cube([[1,2],[0,3]]) =", ig.matrix_function(m, plain).entries(),
      " A @ A @ A =", (m @ m @ m).entries())
try:
    ig.matrix_function(ig.Mat2(1, 1, 0, 1), plain)
except FunctionUndefinedAtEigenvalue as exc:
    print("cube([[1,1],[0,1]]) refused:", exc.code, "(no slope for a double eigenvalue)")

print()
print("=== all real square roots, closed form (A + sI)/t ===")
branch_suite = [
    (ig.Mat2.diag(1, 4), "diag(1,4)"),
    (ig.Mat2(4, 1, 0, 4), "[[4,1],[0,4]]"),
    (ig.Mat2(0, 1, 0, 0), "[[0,1],[0,0]]"),
    (ig.Mat2.scalar(4), "4*I2"),
    (ig.Mat2(0, -1, 1, 0), "rotation 90deg"),
]
for m, label in branch_suite:
    branches = ig.sqrt_branches(m)
    print(f"{label:14s} {len(branches)} roots")
    for r in branches:
        print("   ", r.entries())

print()
print("=== counting all real roots ===")
suite = [
    (ig.Mat2.identity(), "I2"),
    (-ig.Mat2.identity(), "-I2"),
    (ig.Mat2.scalar(4), "4*I2"),
    (ig.Mat2.diag(5, 0), "diag(5,0)"),
    (ig.Mat2(1, 1, 0, 1), "[[1,1],[0,1]]"),
    (ig.Mat2(0, 1, 0, 0), "[[0,1],[0,0]]"),
    (ig.Mat2.diag(-1, -4), "diag(-1,-4)"),
    (ig.Mat2(0, -1, 1, 0), "rotation 90deg"),
]
for m, label in suite:
    verdict = ig.count_real_roots(m)
    print(f"{label:14s} -> {verdict.to_json_dict()}")

print()
print("=== self-check: every branch squares back to A ===")
for m, label in branch_suite:
    residuals = [(r @ r).max_diff(m) for r in ig.sqrt_branches(m)]
    print(f"{label:14s} ||R^2 - A|| =", ", ".join(f"{x:.1e}" for x in residuals) or "(no roots)")

print()
print("=== scaling and conjugation carry roots around ===")
swap = ig.Mat2(0, 1, 1, 0)
scaled = ig.scaled_roots(ig.Mat2.identity(), 4.0, swap)
print("sqrt(4 I2) via scaling the swap root:", scaled.entries())
zc = ig.Mat2(1, 1, 0, 1)
moved = ig.conjugated_roots(ig.Mat2.identity(), zc, ig.Mat2(1, 0, 0, -1))
print("conjugated root of I2:", moved.entries(),
      " squares to", (moved @ moved).entries())
