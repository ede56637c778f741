"""The Jordan-form matrix function, closed-form square roots, and how many exist.

Run:  python demos/matrix_functions.py
"""

import invgeo as ig

print("=== Jordan decompositions ===")
for m, label in [
    (ig.Mat2.diag(1, 4), "diag(1,4)"),
    (ig.Mat2(1, 1, 0, 1), "[[1,1],[0,1]]"),
    (ig.Mat2(0, 1, -2, 3), "[[0,1],[-2,3]]"),
    (ig.Mat2.identity(), "I2"),
]:
    dec = ig.jordan2(m)
    print(f"{label:14s} {dec.kind.value:13s} eigenvalues ({dec.eig1:.3g}, {dec.eig2:.3g})"
          f"  reconstruction residual {dec.reconstruct().max_diff(m):.1e}")

print()
print("=== the principal square root via f(A) = Z f(J) Z^-1 ===")
m = ig.Mat2.diag(1, 4)
principal = ig.matrix_function(m, ig.SQRT)
print("sqrt(diag(1,4)) =", principal.entries())
block = ig.Mat2(4, 1, 0, 4)
print("sqrt([[4,1],[0,4]]) =", ig.matrix_function(block, ig.SQRT).entries(),
      " (uses f' on the Jordan block)")

print()
print("=== all real square roots, closed form (A + sI)/t ===")
for m, label in [
    (ig.Mat2.diag(1, 4), "diag(1,4)"),
    (ig.Mat2(4, 1, 0, 4), "[[4,1],[0,4]]"),
    (ig.Mat2(0, 1, 0, 0), "[[0,1],[0,0]]"),
    (ig.Mat2.scalar(4), "4*I2"),
    (ig.Mat2(0, -1, 1, 0), "rotation 90deg"),
]:
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
print("=== cross-checking with the multi-start numerical oracle ===")
for m, label in [(ig.Mat2.diag(1, 4), "diag(1,4)"), (-ig.Mat2.identity(), "-I2")]:
    found = ig.brute_force_roots(m)
    print(f"{label:10s}: oracle found {len(found)} distinct roots"
          f" (scalar matrices keep producing more as the start grid refines)")

print()
print("=== scaling and conjugation carry roots around ===")
swap = ig.Mat2(0, 1, 1, 0)
scaled = ig.scaled_roots(ig.Mat2.identity(), 4.0, swap)
print("sqrt(4 I2) via scaling the swap root:", scaled.entries())
zc = ig.Mat2(1, 1, 0, 1)
moved = ig.conjugated_roots(ig.Mat2.identity(), zc, ig.Mat2(1, 0, 0, -1))
print("conjugated root of I2:", moved.entries(),
      " squares to", (moved @ moved).entries())
