def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when == "call" and report.nodeid.split("::")[0].endswith("test_acceptance.py"):
        status = "PASS" if report.passed else "FAIL"
        name = report.nodeid.split("::")[-1]
        print(f"\n[acceptance] {status}: {name}", flush=True)
