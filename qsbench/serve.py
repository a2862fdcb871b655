"""Run ``speller serve`` in this process, with the benchmark's spans.

    python3 qsbench/serve.py STATS_JSON SPANS_TSV TRACE -- serve --config FILE

Calls ``queryspell.cli.cli_main`` with the arguments after ``--``.  With
TRACE 1 every layer is traced; with TRACE 0 only ``SpellerService.refresh``
is timed, for the run's notes.  Stop the server with
SIGINT: ``run_server`` returns, and this script writes its peak resident
memory and refresh spans to STATS_JSON, and all spans to SPANS_TSV when
tracing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import peak_rss_mb, use_repo_sources  # noqa: E402


def main(argv: list[str]) -> int:
    stats_path, spans_path, trace, sep, *speller_args = argv
    if sep != "--":
        print(__doc__, file=sys.stderr)
        return 2
    use_repo_sources()
    from queryspell.cli import cli_main
    from tracer import Tracer, write_spans

    tracer = Tracer(None if trace == "1" else {"service.refresh"}).install()
    code = cli_main(speller_args)
    spans = list(tracer.spans)
    refreshes = [(s[3], s[4]) for s in spans if s[2] == "service.refresh"]
    Path(stats_path).write_text(json.dumps({"rss_mb": peak_rss_mb(), "refresh": refreshes}),
                                encoding="utf-8")
    if trace == "1":
        write_spans(spans_path, spans)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
