"""The size-two interaction matrix always yields the same constant.

Admissibility (symmetry plus zero row sums) forces every 2x2 interaction
matrix into the one-parameter family [[a, -a], [-a, a]].  The two norms we
compare collapse accordingly: the sign-box norm is 4|a|, the balanced
quadratic maximum is |a|/4, their ratio is exactly 16, and the achieved
yield is sqrt(2)/16 no matter which matrix you draw.
"""

import numpy as np

from dyadlab.schur import (equivalence_report, find_alpha, norm1_lower,
                           norm2, random_admissible_lambda)

EXPECTED_YIELD = float(np.sqrt(2.0) / 16.0)
N_DRAWS = 5

print(f"{'a':>12s} {'norm2':>10s} {'norm1':>10s} {'ratio':>8s} "
      f"{'achieved_c':>12s}")
for trial in range(N_DRAWS):
    lam = random_admissible_lambda(1, seed=trial)
    a = float(lam.values[0, 0])
    n2 = norm2(lam)
    n1, _ = norm1_lower(lam, restarts=4, iters=100, seed=trial)
    alpha, report = find_alpha(lam, restarts=4, iters=100, seed=trial)
    print(f"{a:12.6f} {n2:10.6f} {n1:10.6f} {n2 / n1:8.3f} "
          f"{report['achieved_c']:12.9f}")

print(f"\nexpected yield sqrt(2)/16 = {EXPECTED_YIELD:.9f}")
print(f"reference threshold       = {report['threshold']:.9f}")
print(f"meets threshold: {report['meets_threshold']}")

rep = equivalence_report(random_admissible_lambda(2, seed=99))
print(f"\nat size four the ratio stays within [16, 192]: {rep['ratio']:.3f}")
