"""``repro.cli`` with every named layer wrapped in span timers.

Usage::

    python3 perfbench/traced_cli.py SPANS.json <repro.cli arguments...>

Installs the wrappers of :func:`tracing.install_server_wrappers`, runs
``repro.cli.main`` with the remaining arguments (``serve`` returns after
its SIGTERM drain), then writes the in-memory spans to ``SPANS.json``.
"""

from __future__ import annotations

import sys

from tracing import SpanRecorder, install_server_wrappers


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = SpanRecorder()
    install_server_wrappers(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
