"""Run one centlat command in this process under the benchmark's span tracer.

    python3 perfbench/clirunner.py SPANS_OUT ARG...

Imports centlat under a ``cli.import`` span, installs the same wrappers as a
traced in-process run, calls ``centlat.cli.main(ARGS)`` under a ``cli.main``
span, writes the spans to SPANS_OUT and exits with main's return code. The
``cli`` workload starts it in place of ``python -m centlat`` when tracing.
"""

import sys

import spans


def main() -> int:
    tracer = spans.Tracer()
    with tracer.span("cli.import"):
        import centlat.cli
    spans.install(tracer)
    try:
        with tracer.span("cli.main"):
            code = centlat.cli.main(sys.argv[2:])
    finally:
        spans.uninstall(tracer)
    sys.stdout.flush()
    tracer.dump(sys.argv[1])
    return code


if __name__ == "__main__":
    sys.exit(main())
