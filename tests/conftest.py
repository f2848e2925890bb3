import numpy as np
import pytest

from qcl.models import LzProblem, QhoProblem
from qcl.optimizer import SeedSpec, minimize, polish, sample_seeds

# one line per acceptance criterion, echoed after the run (see
# pytest_terminal_summary) so the pass/fail report survives output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def build_pool(problem, bounds, rng_seed, want, polish_target=1e-18):
    """Deterministic pool of deeply-converged solutions for one problem."""
    fields = []
    batch = 0
    while len(fields) < want and batch < 60:
        seeds = sample_seeds(SeedSpec(count=max(want, 10), bounds=bounds,
                                      rng_seed=rng_seed + batch), problem)
        for s in seeds:
            rep = minimize(problem, s, tol=1e-6, max_iter=2000)
            if rep.converged:
                deep = polish(problem, rep.field, target=polish_target)
                if deep.converged:
                    fields.append(deep.field)
            if len(fields) >= want:
                break
        batch += 1
    if len(fields) < want:
        raise RuntimeError(
            f"only {len(fields)}/{want} solutions found for {problem}")
    return fields


@pytest.fixture(scope="session")
def solution_bank():
    """Twenty deep solutions per documented model configuration."""
    specs = {
        "lz3": (LzProblem(gap=2.0, duration=1.4 * np.pi / 2, n_pulses=3), (-5.0, 5.0), 1000, 20),
        "lz6": (LzProblem(gap=2.0, duration=1.8, n_pulses=6), (-5.0, 5.0), 2000, 20),
        "qho6": (QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8,
                            n_pulses=6), (0.1, 3.0), 3000, 20),
        "qho48": (QhoProblem(omega_start=1.0, omega_target=1.0, duration=1.8,
                             n_pulses=48), (0.1, 3.0), 4000, 20),
        "lz48": (LzProblem(gap=2.0, duration=1.8, n_pulses=48), (-5.0, 5.0), 5000, 2),
    }
    bank = {}
    for name, (problem, bounds, seed, want) in specs.items():
        bank[name] = (problem, build_pool(problem, bounds, seed, want))
    return bank
