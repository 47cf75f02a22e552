"""A traced `entcrit` CLI process for the cli workload's traced run.

    python3 bench/cli_child.py SPANS_FILE [entcrit arguments ...]

Times a cold `import entcrit`, then, if arguments follow, runs
`entcrit.cli.main(arguments)` with the layer wrappers installed, writes the
spans to SPANS_FILE and exits with main's exit code.
"""

import sys

from tracing import Tracer, install


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("entcrit.import"):
        import entcrit  # noqa: F401
    code = 0
    if argv:
        import entcrit.cli

        install(tracer)
        code = entcrit.cli.main(argv)
    tracer.dump(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
