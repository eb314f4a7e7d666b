"""The cut-and-paste bijection realizing the gamma coefficients.

For trees with k minus-labels, two families are equinumerous with the k-th
gamma coefficient of the separable descent polynomial: trees whose odd
chains all start '+', and trees with '+' first node and no consecutive
'-' (the no-double-descent permutations).  The map psi repairs each odd
'-'-starting chain against a unique adjoint partner; phi undoes it.
"""

from descpoly import (
    DiskTree,
    bijection_certificate,
    classify,
    order_independence_certificate,
    phi,
    psi,
    separable_gamma,
)

tree = DiskTree.parse("(- (+ _ _) _)")
print("source tree:", tree.to_text())
m = classify(tree)
print(f"  family two: {m.in_dt2}, family one: {m.in_dt1}, n_minus = {m.n_minus}")
image = psi(tree)
print("psi image:  ", image.to_text())
print("phi returns:", phi(image).to_text())

print("\nexhaustive census at n = 6:")
for k in range(3):
    cert = bijection_certificate(6, k)
    print(f"  k={k}: |family one| = {cert['dt1_count']}, "
          f"|family two| = {cert['dt2_count']}, "
          f"gamma = {separable_gamma(6)[k]}, "
          f"inverse maps verified: {cert['bijection_ok']}")
    if cert["case_histogram"]:
        print(f"       search cases used: {cert['case_histogram']}")

big = DiskTree.parse("(+ _ (- _ (+ (- (+ (- (+ _ _) _) _) _) _)))")
print("\nan instance needing two moves:", big.to_text())
print("order independence over 25 random move orders:",
      order_independence_certificate(big, trials=25, seed=1))
