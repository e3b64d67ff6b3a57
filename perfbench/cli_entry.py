"""Start the cographkit command line with the span wrappers installed.

    python -B perfbench/cli_entry.py SPANS_FILE [cographkit arguments ...]

Behaves like ``python -m cographkit.cli`` (same arguments, output and exit
code) and writes the spans it recorded to SPANS_FILE, one JSON list per
line, when it exits.  The package must be importable (``PYTHONPATH=src``).
"""

import sys

import spans


def main() -> int:
    rec = spans.Recorder()
    import cographkit.cli

    spans.install(rec)
    rec.enabled = True
    try:
        with rec.span("cli.main"):
            return cographkit.cli.main(sys.argv[2:])
    finally:
        rec.enabled = False
        rec.write(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
