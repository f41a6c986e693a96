"""``python -m repro.serve`` with span tracing, for the traced run.

Usage: ``python perfbench/traced_serve.py SPANS_OUT [repro.serve args]``.
Wraps the public entry points of every served layer (see
:func:`tracing.instrument_server`), runs the unmodified
``repro.serve.main()``, and writes the span table to ``SPANS_OUT`` when
the server shuts down.
"""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import repro.serve  # noqa: E402

import tracing  # noqa: E402


def main(argv) -> int:
    out, serve_args = argv[0], argv[1:]
    log = tracing.SpanLog()
    tracing.instrument_server(log, repro.serve)
    status = repro.serve.main(serve_args)
    log.save(out)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
