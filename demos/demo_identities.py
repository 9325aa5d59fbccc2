"""Walk one random dyadic window through the exact identity battery.

Everything printed here is checked in exact rational arithmetic: these are
algebraic identities of the finite window, so any mismatch would be a bug,
not roundoff.
"""

from dyadlab.cli import identity_battery
from dyadlab.dyadic import sample_system
from dyadlab.signal import haar_expand, random_step_function

SEED = 5
DEPTH = 4

system = sample_system(SEED, DEPTH)
print(f"window: origin {system.origin}, length {system.window_length}, "
      f"depth {system.depth} ({system.n_leaves} cells)")

f = random_step_function(system, seed=(SEED, 1), exact=True)
mean, levels = haar_expand(f)
print(f"\nrandom step function: mean {mean[0]}, "
      f"{sum(len(level) for level in levels)} Haar coefficients in "
      f"{len(levels)} levels, e.g. root coefficient {levels[0][0, 0]}")

report = identity_battery(seed=SEED, depth=DEPTH, trials=3)
print(f"\nidentity battery over {report['trials']} random trials:")
for check in report["checks"]:
    trial = check.pop("trial")
    for name, ok in check.items():
        print(f"  trial {trial}  {name:28s} {'ok' if ok else 'FAILED'}")
print(f"\nall identities hold: {report['all_passed']}")
