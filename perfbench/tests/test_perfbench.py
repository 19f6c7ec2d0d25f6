"""The benchmark's own checks: seeded inputs, oracles and span arithmetic.

Run with ``python3 -m pytest perfbench/tests``.
"""

from fractions import Fraction
from random import Random

import pytest

import inputs
import run
import spans
import workloads
from floergamma import cli
from floergamma.floer_datum import datum_to_json, validate
from floergamma.gamma import gamma, h_invariant
from floergamma.novikov import INF


def test_generator_is_deterministic_and_valid():
    def make(seed):
        return inputs.transformed(Random(seed), "d1", [4, 2], 2, "t")

    first, second = make(7), make(7)
    assert datum_to_json(first.datum) == datum_to_json(second.datum)
    assert datum_to_json(make(8).datum) != datum_to_json(first.datum)
    assert validate(first.datum).ok
    assert not first.datum.d.is_zero()


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_workload_is_a_function_of_the_seed(name, tmp_path):
    def snapshot(directory):
        directory.mkdir()
        wl = workloads.build(name, 3, directory)
        argv = [[a.replace(str(directory), "") for a in job.argv] for job in wl.jobs]
        files = {p.name: p.read_text().replace(str(directory), "")
                 for p in sorted(directory.iterdir())}
        return argv, files

    first, second = snapshot(tmp_path / "a"), snapshot(tmp_path / "b")
    assert first == second
    assert len(first[0]) >= 100


def test_closed_form_matches_the_library():
    rng = Random(5)
    for _ in range(12):
        family = rng.choice(["d1", "d2"])
        lengths = [rng.choice((2, 4)) for _ in range(rng.randint(1, 3))]
        lad = inputs.transformed(rng, family, lengths, rng.randint(0, 3), "t")
        assert [gamma(lad.datum, k) for k in range(-4, 5)] == \
            [lad.gamma(k) for k in range(-4, 5)]
        assert h_invariant(lad.datum) == lad.h()


def _sigma_h_job():
    gammas = {k: INF if k > 2 else 0 for k in range(-4, 5)}
    gammas.update({1: Fraction(1, 120), 2: Fraction(49, 120)})
    jobs = workloads.datum_jobs("sigma_2_3_5", gammas, 1,
                                workloads.FIXTURE_LIFTS["sigma_2_3_5"], {}, [1])
    return next(job for job in jobs if job.argv[0] == "h")


def test_oracle_counts_a_wrong_answer_as_failed(monkeypatch):
    job = _sigma_h_job()
    _, (code, out, err) = run.run_job(cli, job.argv)
    assert job.check(code, out, err) is None

    true_h = cli.h_invariant
    monkeypatch.setattr(cli, "h_invariant", lambda datum: true_h(datum) + 1)
    _, (code, out, err) = run.run_job(cli, job.argv)
    assert job.check(code, out, err) is not None


def test_a_job_that_raises_is_recorded_not_propagated(monkeypatch):
    def boom(datum):
        raise ValueError("boom")
    monkeypatch.setattr(cli, "h_invariant", boom)
    _, (code, out, err) = run.run_job(cli, _sigma_h_job().argv)
    assert code is None and err == "raised ValueError: boom"


def test_self_time_subtracts_the_union_of_children():
    synthetic = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 5.0, 6.0, 0, 0],
        ["d", 2.0, 3.0, 1, 0],
        ["e", 20.0, 21.0, -1, 1],
    ]
    assert spans.self_times(synthetic) == [6.0, 2.0, 1.0, 1.0, 1.0]


def test_tracing_keeps_outputs_and_restores_bindings():
    argv = ["gamma", "sigma_2_3_5", "--range", "-2..2"]
    plain = run.run_job(cli, argv)[1]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert hasattr(cli.gamma_profile, "__wrapped__")
        traced = run.run_job(cli, argv)[1]
    finally:
        tracer.uninstall()
    assert traced == plain
    labels = {span[0] for span in tracer.spans}
    assert {"cli.main", "floer_datum.load_datum", "gamma.gamma_profile",
            "gamma.gamma", "linalg.q_rank"} <= labels
    assert tracer.counts["novikov.elements"] > 0
    assert not hasattr(cli.gamma_profile, "__wrapped__")
    assert not hasattr(cli.main, "__wrapped__")
