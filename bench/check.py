"""Output check: compares every experiment's rows with the reference rows.

An experiment fails when it exits non-zero, when a row's verdict is a
failure verdict, when a theorem verdict flips, when a closed-form value
drifts from its reference, or when its rows differ in (command, n) from the
reference.  Rows whose value is a searched lower bound of a supremum also
give a ratio to their reference; the smallest ratio is `sup_found_ratio`,
which drops when a change gets faster by searching less.
"""

from __future__ import annotations

FAIL_VERDICTS = frozenset({"HOLDER_VIOLATION", "FLOOR_MISS", "OUTSIDE",
                           "SHORT", "FAIL", "NOT_DECREASING"})
# command -> verdict prefix the row must keep
THEOREM_VERDICTS = {"cantor/fit": "NON_CONVERGENT", "lie/fit": "POLY_RATE"}
SEARCHED = frozenset({"rates", "cantor", "oracle/symbol", "oracle/probe",
                      "strong/norm-floor"})
CLOSED_FORM = frozenset({"lie/telescoping", "lie/error", "strong/residual"})
# closed-form values may move by roundoff, e.g. an SVD in place of power
# iteration, but not by a changed formula
REL_TOL = 1e-6
ABS_TOL = 1e-12


def compact_rows(rows: list[dict]) -> list[list]:
    """The parts of report rows the check reads: [command, n, value, verdict]."""
    return [[r["command"], r["n"], r["value"], r["verdict"]] for r in rows]


def check_experiment(rc, rows, reference) -> tuple[list[str], list[float]]:
    """Problems found in one experiment's compact rows, and its searched ratios."""
    if rc != 0:
        return [f"exit code {rc}"], []
    if rows is None:
        return ["no report"], []
    if [r[:2] for r in rows] != [r[:2] for r in reference]:
        return ["rows differ in (command, n) from the reference"], []
    problems, ratios = [], []
    for (command, n, value, verdict), (_, _, ref, _) in zip(rows, reference):
        where = f"{command} n={n}"
        if verdict in FAIL_VERDICTS:
            problems.append(f"{where}: verdict {verdict}")
        want = THEOREM_VERDICTS.get(command)
        if want is not None and not verdict.startswith(want):
            problems.append(f"{where}: verdict {verdict}, expected {want}")
        if command in CLOSED_FORM and abs(value - ref) > REL_TOL * abs(ref) + ABS_TOL:
            problems.append(f"{where}: value {value!r} drifted from {ref!r}")
        if command in SEARCHED and ref > 0.0:
            ratios.append(value / ref)
    return problems, ratios


def self_check(references: list[list[list]]) -> None:
    """Show that the check catches planted faults in the given reference rows."""
    for reference in references:
        problems, ratios = check_experiment(0, reference, reference)
        if problems or any(r != 1.0 for r in ratios):
            raise AssertionError(f"reference rows fail their own check: {problems}")
        for i, (command, n, value, verdict) in enumerate(reference):
            planted = [list(r) for r in reference]
            planted[i][3] = "FLOOR_MISS"
            if not check_experiment(0, planted, reference)[0]:
                raise AssertionError(f"FLOOR_MISS in {command} n={n} not caught")
            if command in SEARCHED and value > 0.0:
                planted = [list(r) for r in reference]
                planted[i][2] = 0.99 * value
                if min(check_experiment(0, planted, reference)[1]) > 0.99 + 1e-12:
                    raise AssertionError(f"lowered {command} n={n} not caught")
            if command in CLOSED_FORM:
                planted = [list(r) for r in reference]
                planted[i][2] = value * (1.0 + 1e-4) + 1e-9
                if not check_experiment(0, planted, reference)[0]:
                    raise AssertionError(f"drifted {command} n={n} not caught")
        if not check_experiment(1, reference, reference)[0]:
            raise AssertionError("non-zero exit not caught")
