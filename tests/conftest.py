import csv
import os

import numpy as np
import pytest
from hypothesis import settings

# HYPOTHESIS_PROFILE=ci loads the ci profile: the CLI fuzz tests of tests/test_cli.py then draw
# 500 examples per subcommand and input kind instead of 40.  Every other property test sets its
# own max_examples, which a profile does not override, so it draws the same count under both.
settings.register_profile("ci", max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    reports = []
    for key in ("passed", "failed"):
        reports.extend(terminalreporter.stats.get(key, []))
    acceptance = [r for r in reports if "test_acceptance" in r.nodeid and r.when == "call"]
    if not acceptance:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for report in sorted(acceptance, key=lambda r: r.nodeid):
        status = "PASS" if report.passed else "FAIL"
        terminalreporter.write_line(f"[{status}] {report.nodeid.split('::')[-1]}")


@pytest.fixture
def write_csv(tmp_path):
    def _write(name, header, rows):
        path = tmp_path / name
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        return path

    return _write


@pytest.fixture
def write_pgm(tmp_path):
    def _write(name, pixels, maxval=255, binary=True):
        pixels = np.asarray(pixels)
        h, w = pixels.shape
        path = tmp_path / name
        header = f"P{'5' if binary else '2'}\n{w} {h}\n{maxval}\n"
        if binary:
            body = (
                pixels.astype(np.uint8).tobytes()
                if maxval == 255
                else pixels.astype(">u2").tobytes()
            )
            path.write_bytes(header.encode("ascii") + body)
        else:
            rows = "\n".join(" ".join(str(int(v)) for v in row) for row in pixels)
            path.write_text(header + rows + "\n", encoding="ascii")
        return path

    return _write
