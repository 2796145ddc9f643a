# Pole placement, parametrically on the reachability staircase.
#
# The state parts of the kernel of [A - lambda*I  B] hold every closed-loop
# eigenvector at lambda: on Kalman's controllability form they are
# v = (lambda - A11)^-1 B11 g.  Each requested value gets such columns (the
# free parameters g refined by KNV method 0); stacking their coordinates
# X = Q^T V on the staircase Q with their inputs H through Omega1 and forming
# F = F0 + Omega1 H X^+ Q^T assigns them (without outputs the friend F0 is 0).

import numpy as np

from geokit import place_poles
from geokit.sysmodel import GenSpec, random_system

A = np.array([[0.0, 1.0], [0.0, 0.0]])
B = np.array([[0.0], [1.0]])

print("double integrator, real spectrum {-1, -2}")
fb = place_poles(A, B, [-1.0, -2.0])
print("  F              :", np.round(fb.F, 9))
print("  closed-loop eig:", np.round(np.sort(np.linalg.eigvals(A + B @ fb.F).real), 9))

print("\ndouble integrator, conjugate pair -1 ± i (feedback stays real)")
fb = place_poles(A, B, [complex(-1, 1), complex(-1, -1)])
print("  F              :", np.round(fb.F, 9))
print("  closed-loop eig:", np.round(np.linalg.eigvals(A + B @ fb.F), 9))

print("\npartially controllable pair: only the reachable eigenvalue moves")
Au = np.diag([1.0, 2.0])
Bu = np.eye(2)[:, :1]
fb = place_poles(Au, Bu, [-3.0])
print("  F              :", np.round(fb.F, 9))
print("  closed-loop eig:", np.round(np.sort(np.linalg.eigvals(Au + Bu @ fb.F).real), 9))

print("\nrandom controllable system, full spectrum request")
sys = random_system(GenSpec(n=5, m=2, seed=7))
want = [-1.0, -2.0, -3.0, complex(-0.5, 1.5), complex(-0.5, -1.5)]
fb = place_poles(sys.A, sys.B, want)
print("  requested      :", np.round(np.asarray(want), 4))
achieved = np.linalg.eigvals(sys.A + sys.B @ fb.F)
print("  achieved       :", np.round(achieved[np.argsort(achieved.real)], 4))
print("  cond(V)        : %.2e" % fb.cond_V)
