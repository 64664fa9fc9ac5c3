"""Shared fixtures, the exact-lattice reference and the acceptance-line
reporter.

The ``zoo`` fixture gives one representative per potential family plus a
couple of edge members; property suites iterate over it.
`exact_lattice_sums` makes every family's lattice sums its kernel on each
window, the reference that searches on exactly summed windows give.
Acceptance tests register a one-line verdict per criterion which is echoed
in the terminal summary so the gate is visible regardless of capture
settings.
"""

from contextlib import contextmanager

import pytest

import trotter_lab as tl

_ACCEPTANCE_LINES = []


def record_acceptance(line: str):
    _ACCEPTANCE_LINES.append(line)


def _families(cls):
    """cls and every class under it."""
    yield cls
    for sub in cls.__subclasses__():
        yield from _families(sub)


@contextmanager
def exact_lattice_sums():
    """Within the block, every family's `lattice_sums` is its `left_sums`
    on each lattice window, with slop 0: each class under `Potential`
    that defines its own `lattice_sums` is patched, so that no override
    escapes the reference."""
    with pytest.MonkeyPatch.context() as patch:
        for cls in set(_families(tl.Potential)):
            if "lattice_sums" in vars(cls):
                patch.setattr(cls, "lattice_sums", lambda self, lat, n: (
                    self.left_sums(lat.ts, lat.ss, n), 0.0))
        yield


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def zoo():
    return [
        ("constant", tl.Constant(1.0)),
        ("zero", tl.Constant(0.0)),
        ("linear", tl.Linear()),
        ("affine", tl.Linear(slope=0.5, intercept=0.25)),
        ("steps", tl.PiecewiseConstant([0.0, 0.25, 0.5, 1.0], [1.0, 0.0, 2.0])),
        ("weier", tl.HolderWeierstrass(0.5, 8)),
        ("tent", tl.build_tent_train([1.0 / j for j in range(1, 7)])),
        ("cantor3", tl.build_cantor(3)[0]),
    ]
