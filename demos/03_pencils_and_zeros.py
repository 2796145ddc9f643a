# System pencils: PBH controllability test, kernel dimensions, and invariant
# zeros located three ways (triangular decomposition, rank drop of the system
# matrix, and the feedthrough Schur complement for square systems).  The
# system matrix's normal rank, n + m - m1, is read off the same triangular
# decomposition that gives the zeros: no eigenvalue is sampled.

import numpy as np

from geokit import (
    SystemQuad,
    invariant_zeros,
    reach_pencil_kernel,
    rosenbrock_kernel,
    uncontrollable_eigenvalues,
)
from geokit.geometry import morse_decomposition
from geokit.linalg import rank_of
from geokit.pencils import rosenbrock_matrix
from geokit.sysmodel import GenSpec, random_system

print("PBH test on a block-diagonal pair (second mode unreachable)")
A = np.diag([1.0, 2.0])
B = np.eye(2)[:, :1]
print("  uncontrollable:", uncontrollable_eigenvalues(A, B))
print("  kernel at 2.0 has dim", reach_pencil_kernel(A, B, 2.0).q, "(inflated at the bad eigenvalue)")

print("\ndouble integrator with velocity output")
sys = SystemQuad.from_matrices([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]],
                               [[0.0, 1.0]], [[0.0]])
dec = morse_decomposition(sys)
print("  invariant zeros   :", invariant_zeros(sys))
print("  normal rank       :", dec.normal_rank, "(n + m - m1, m1 = %d)" % dec.m1)
print("  rank at the zero  :", rank_of(rosenbrock_matrix(sys, 0.0)))
print("  kernel dim at -1  :", rosenbrock_kernel(sys, -1.0).q, "(system matrix invertible off the zero)")
print("  triangular blocks : reachability part %d, output-nulling part %d" % (
    dec.dim_rstar, dec.dim_vstar))
print("  zero block eig    :", np.round(dec.invariant_zeros, 9))

print("\nsquare random system: zeros vs feedthrough Schur complement")
rnd = random_system(GenSpec(n=4, m=2, p=2, seed=11))
zs = np.asarray(invariant_zeros(rnd))
oracle = np.linalg.eigvals(rnd.A - rnd.B @ np.linalg.solve(rnd.D, rnd.C))
print("  decomposition:", np.round(zs[np.argsort(zs.real)], 5))
print("  Schur        :", np.round(oracle[np.argsort(oracle.real)], 5))
