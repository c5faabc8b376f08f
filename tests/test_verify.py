"""Input checks of the verification studies."""

import itertools
import math
import os
import sys
import time

import numpy as np
import pytest

from qcollide import verify
from qcollide.collisions import run_trajectory
from qcollide.lindblad import integrate
from qcollide.presets import maximally_mixed, qubit_collision, qutrit_ancilla_collision, three_level_collision
from qcollide.states import trace_distance
from qcollide.verify import DEFAULT_DT_TARGET, generator_for, random_collision_suite, stroboscopic_deviation


def test_deviation_needs_a_species():
    with pytest.raises(ValueError, match="^need at least one collision config$"):
        stroboscopic_deviation(lambda tau: [], (1e-2,), t_final=0.1)


def test_deviation_starts_from_the_maximally_mixed_state_of_the_species():
    # a qutrit system: the start state is maximally_mixed(3), not the qubit one
    taus, t_final = (2e-3, 1e-3), 4e-3
    want = []
    for tau in taus:
        cfgs = [three_level_collision(tau)]
        n_rounds = round(t_final / tau)
        strobes = run_trajectory(maximally_mixed(3), cfgs, n_rounds).states
        gen = generator_for(cfgs)
        substeps = max(1, math.ceil(tau / min(DEFAULT_DT_TARGET, 0.09 / gen.norm)))
        _, reference = integrate(gen, maximally_mixed(3), n_rounds * tau, tau / substeps)
        # The state at the end of round k + 1 is that of step (k + 1) * substeps.
        distances = trace_distance(
            strobes.matrix, np.array([reference.matrix[(k + 1) * substeps - 1] for k in range(n_rounds)])
        )
        want.append((tau, float(distances.max())))
    assert stroboscopic_deviation(lambda tau: [three_level_collision(tau)], taus, t_final) == want


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the study runs in-process without os.fork")


def two_species(tau):
    return [
        qubit_collision(lam=0.3, tau=tau, label="A"),
        qutrit_ancilla_collision(g=0.8, beta=0.5, lam=0.25, tau=tau, label="B"),
    ]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_at(monkeypatch, name, index, exc_type):
    """Make ``verify.<name>`` raise on its call number ``index`` (from 0), in whichever process calls it."""
    real, calls = getattr(verify, name), itertools.count()

    def failing(*args, **kwargs):
        if next(calls) == index:
            raise exc_type(f"{name} failed at tau index {index}")
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, name, failing)


@needs_fork
def test_forked_study_is_the_in_process_study_bit_for_bit(monkeypatch):
    taus = (4e-2, 1e-2, 5e-3)
    forked = stroboscopic_deviation(two_species, taus, t_final=0.4)
    assert_no_child_left()
    monkeypatch.delattr(os, "fork")
    assert stroboscopic_deviation(two_species, taus, t_final=0.4) == forked


@pytest.mark.parametrize("fork", [pytest.param(True, marks=needs_fork), False], ids=["forked", "in-process"])
@pytest.mark.parametrize(
    "build_at, stroke_at, reference_at, winner",
    [
        (None, 1, 0, "integrate"),
        (None, 0, 0, "run_trajectory"),
        (None, 1, 1, "run_trajectory"),
        (None, 0, 1, "run_trajectory"),
        (1, 0, None, "run_trajectory"),
        (1, None, 0, "integrate"),
        (1, 1, 1, "build"),
        (0, 0, 0, "build"),
    ],
)
def test_the_first_failing_tau_raises_as_in_the_serial_loop(
    monkeypatch, fork, build_at, stroke_at, reference_at, winner
):
    if not fork:
        monkeypatch.delattr(os, "fork")
    errors = {"build": NameError, "run_trajectory": ArithmeticError, "integrate": LookupError}
    for name, index in (("run_trajectory", stroke_at), ("integrate", reference_at)):
        if index is not None:
            fail_at(monkeypatch, name, index, errors[name])
    taus = (4e-2, 2e-2, 1e-2)

    def build(tau):
        if build_at is not None and tau == taus[build_at]:
            raise errors["build"](f"build failed at tau index {build_at}")
        return two_species(tau)

    with pytest.raises(Exception, match=f"^{winner} failed") as caught:
        stroboscopic_deviation(build, taus, t_final=0.08)
    assert type(caught.value) is errors[winner]
    assert_no_child_left()


@needs_fork
def test_a_child_without_a_result_is_an_error(monkeypatch):
    def die(*args):
        os._exit(3)

    monkeypatch.setattr(verify, "run_trajectory", die)
    with pytest.raises(ChildProcessError, match="ended without a result"):
        stroboscopic_deviation(two_species, (4e-2, 2e-2), t_final=0.08)
    assert_no_child_left()


@needs_fork
def test_an_interrupted_parent_kills_and_reaps_the_child(monkeypatch):
    def hang(*args):
        time.sleep(60)

    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(verify, "run_trajectory", hang)
    monkeypatch.setattr(verify, "integrate", interrupt)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        stroboscopic_deviation(two_species, (4e-2, 2e-2), t_final=0.08)
    assert time.monotonic() - start < 30
    assert_no_child_left()


@needs_fork
def test_the_child_writes_nothing_to_stdout(capfd, monkeypatch):
    # Block-buffered, as stdout is when it is a file or a pipe: "ahead" is still buffered at the fork.
    with open(os.dup(1), "w", encoding="utf-8") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        print("ahead", end="")
        stroboscopic_deviation(two_species, (4e-2, 2e-2), t_final=0.08)
        print(" after")
    assert capfd.readouterr() == ("ahead after\n", "")


@pytest.mark.parametrize("count", [0, -3])
def test_suite_needs_a_sample(monkeypatch, count):
    def refuse(*args, **kwargs):
        raise AssertionError("drew a collision")

    monkeypatch.setattr(verify, "draw_collisions", refuse)
    with pytest.raises(ValueError, match=f"^count must be >= 1, got {count}$"):
        random_collision_suite(1, count)
