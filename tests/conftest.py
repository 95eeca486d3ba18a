"""Prints one PASS/FAIL line per acceptance criterion after the run."""

ACCEPTANCE_PREFIX = "tests/test_acceptance.py::test_criterion_"

LABELS = {
    "01": "1. log-canonical closed-form table reproduced at 1e-13 (10 rows)",
    "02": "2. Fano closed-form table reproduced at 1e-13 (4 rows)",
    "03": "3. Shimura h(p) exact rational equality (4 cases)",
    "04": "4. sharp height bounds on the 20^3 stability grid",
    "05": "5. period-limit convergence (both polarities)",
    "06": "6. small-N direct-integration oracle within 1e-2",
    "07": "7. log-Calabi-Yau value and the V -> 0 limit",
    "08a": "8a. Arakelov constant: printed -0.887002 (-0.88...) recomputed, shipped = printed + ln 2",
    "08b": "8b. eps_4 = ln 2 + 1/4 exactly",
    "08c": "8c. Arakelov bound chain on m in [4, 60]",
    "09": "9. special-function property suite",
    "10": "10. midpoint concavity on 100 random segments",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    del exitstatus, config
    seen = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if ACCEPTANCE_PREFIX.split("::")[0] in nodeid and "test_criterion_" in nodeid:
                key = nodeid.split("test_criterion_")[1].split("_")[0]
                seen[key] = outcome
    if not seen:
        return
    tw = terminalreporter
    tw.write_sep("=", "acceptance criteria")
    for key in sorted(LABELS):
        if key not in seen:
            continue
        status = "PASS" if seen[key] == "passed" else "FAIL"
        tw.write_line(f"{status}  {LABELS[key]}")
