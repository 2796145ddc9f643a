import pytest

from geokit.errors import ValidationError
from geokit import verify
from geokit.linalg import DEFAULT_TOL


@pytest.mark.parametrize("theorem", sorted(verify.THEOREM_IDS))
def test_small_sweeps_pass(theorem):
    rep = verify.run(theorem, trials=10, seed=3, nmax=6)[0]
    assert rep.ok, rep.failures[:3]
    assert rep.trials == 10 and rep.passed == 10
    assert rep.first_failing_seed is None


def test_all_runs_everything():
    reports = verify.run("all", trials=3, seed=1, nmax=5)
    assert [r.theorem for r in reports] == list(verify.THEOREM_IDS)


@pytest.mark.parametrize("theorem", list(verify.THEOREM_IDS))
def test_table_entry_runs_its_own_sweep(theorem):
    rep = verify.THEOREM_IDS[theorem](trials=2, seed=0, nmax=4, tol=DEFAULT_TOL)
    assert rep.theorem == theorem and rep.trials == 2


def test_unknown_id():
    with pytest.raises(ValidationError):
        verify.run("nope")


@pytest.mark.parametrize("theorem", ["th1", "all"])
def test_negative_trials_refused(theorem):
    with pytest.raises(ValidationError):
        verify.run(theorem, trials=-3)


def test_reports_deterministic():
    a = verify.run("th1", trials=5, seed=11)[0].to_dict()
    b = verify.run("th1", trials=5, seed=11)[0].to_dict()
    assert a == b


def test_report_shape():
    rep = verify.run("lemma-diag", trials=4, seed=0)[0]
    d = rep.to_dict()
    assert set(d) == {"theorem", "trials", "passed", "failed", "first_failing_seed", "failures"}
    assert d["failed"] == 0


def test_lemma_reach_at_forty_states():
    # a direction kept just above the rank threshold must be re-orthogonalized
    # after normalizing, or the basis drifts out of orthonormality here
    rep = verify.run("lemma-reach", trials=5, seed=0, nmax=40)[0]
    assert rep.ok, rep.failures


def test_thlast_seed_with_clustered_spectrum():
    # trial 9 draws eight real values, five of them in [0.45, 0.60]: the
    # stacked kernel state parts lost a direction there (dim 7 of 8)
    rep = verify.run("thlast", trials=10, seed=2099642678)[0]
    assert rep.ok, rep.failures[:3]


def test_corollary_last_at_twenty_states():
    # trial 7 (h = 17) got a zero reachability subspace from the kernel stack
    rep = verify.run("corollary-last", trials=20, seed=0, nmax=20)[0]
    assert rep.ok, rep.failures[:3]


def test_lattice_at_twenty_states():
    # trial 12 draws cliff A's system, GenSpec(19, 2, 1, seed=1354216623), with
    # h = 19 = dim Kh: the eigenvectors have cond_V 4.4e8, which a RuntimeWarning
    # signals; F = W V⁺ left an output residual of 4.28e-08 there, and
    # F = F0 + Omega1 H X⁺ Qᵀ, whose residuals do not grow with cond_V, 1.6e-15
    with pytest.warns(RuntimeWarning, match="condition number"):
        rep = verify.run("lattice", trials=13, seed=0, nmax=20)[0]
    assert rep.ok, rep.failures[:3]
