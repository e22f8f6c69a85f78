"""Acceptance gate: every criterion at its stated tolerance.

Runs the same registry as ``planar3b validate`` so the CLI and the test
suite cannot drift apart; one pass/fail line is printed per criterion.
"""

import logging
import subprocess
import sys

import pytest

from planar3b import validation
from planar3b.cli import default_config

_CHECKS = [check for _, check in validation.CHECKS]
_NAMES = [check.__name__.removeprefix("check_") for check in _CHECKS]


@pytest.fixture(scope="module")
def cfg():
    return default_config()


@pytest.mark.parametrize("check", _CHECKS, ids=_NAMES)
def test_acceptance(check, cfg):
    result = check(cfg)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_registry_covers_all_modules(cfg):
    modules = {module for module, _ in validation.CHECKS}
    assert {"specfun", "potentials", "wkb", "radial_oracle", "scattering", "cli_io"} <= modules
    assert validation.ALL_CHECKS == tuple(_CHECKS)


def test_validation_leaves_potentials_log_level_alone(cfg):
    # neither importing the module nor running the checks changes a logger
    code = ("import logging; log = logging.getLogger('planar3b.potentials'); "
            "log.setLevel(logging.INFO); import planar3b.validation; "
            "assert log.level == logging.INFO, log.level")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    log = logging.getLogger("planar3b.potentials")
    level = log.level
    try:
        log.setLevel(logging.DEBUG)
        (result,) = validation.run_checks(cfg, only="specfun")
        assert result.passed and result.module == "specfun"
        assert log.level == logging.DEBUG
    finally:
        log.setLevel(level)
