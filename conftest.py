"""Command-line options shared by the ``tests`` and ``benchmarks`` suites.

Options must be registered by a conftest pytest loads before parsing the
command line; this root one is loaded for any path under the repository.
"""

from __future__ import annotations


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--regenerate-results",
        action="store_true",
        default=False,
        help="rewrite the committed results/*.txt figure tables (benchmarks/)",
    )
