# The structural rank identities behind eigenstructure assignment.
#
# Joining pencil-kernel state parts at h distinct admissible eigenvalues
# spans a subspace whose dimension never depends on which eigenvalues were
# picked: it equals the rank of the h-block controllability matrix
# (reachability pencil) or the dimension of (supremal output-nulling) ∩
# (h-th input-containing term) (system matrix).  The subspace itself rotates
# with the eigenvalues, but its reachability part does not move at all.

import numpy as np

from geokit import build_Kh, reach_pencil_kernel
from geokit.geometry import chain_term, reachability_on, sstar_sequence, vstar
from geokit.linalg import equals, rank_of
from geokit.sysmodel import GenSpec, random_system

rng = np.random.default_rng(5)

print("reachability pencil: kernel-span rank vs controllability-matrix rank")
sys = random_system(GenSpec(n=6, m=2, seed=3))
ctrb = [sys.B]
for h in range(1, sys.n + 1):
    lams = -1.0 - 3.0 * rng.random(h)  # any distinct admissible values work
    V = np.hstack([reach_pencil_kernel(sys.A, sys.B, lam).V for lam in lams])
    print("  h=%d: kernel span %d, Krylov rank %d" % (
        h, rank_of(V, scale=1.0), rank_of(np.hstack(ctrb))))
    ctrb.append(sys.A @ ctrb[-1])

print("\nsystem matrix: three λ-sets give rotating spans of equal dimension,")
print("with one common reachability part")
quad = random_system(GenSpec(n=5, m=2, p=1, seed=21))
schain = sstar_sequence(quad)
h = 2
target = vstar(quad, chain_term(schain, h))
parts = []
for trial in range(3):
    lams = [-0.5 - trial - k for k in range(h)]
    kh, _ = build_Kh(quad, lams)
    rh = reachability_on(quad, kh)
    parts.append((lams, kh, rh))
    print("  λ=%-14s dim span %d, reachability part %d" % (lams, kh.dim, rh.dim))
print("  spans pairwise equal     :", equals(parts[0][1], parts[1][1]))
print("  reachability parts equal :", all(equals(p[2], parts[0][2]) for p in parts))
print("  equal to sup output-nulling inside the h-th input-containing term:",
      all(equals(p[2], target) for p in parts))
