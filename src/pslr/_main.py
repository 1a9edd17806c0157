"""Launcher behind the ``pslr`` console script and ``python -m pslr``, the one launch path.

Kept free of numpy/scipy imports, as is the package ``__init__``, so that a
``--threads`` request can export the standard BLAS thread-count variables
before the BLAS runtime is loaded; once numpy is imported the pool size is
fixed.  Under a finite address-space limit (RLIMIT_AS) and with no
``--threads`` given, it exports 1: an OpenBLAS thread whose allocation fails
under the limit can hang instead of exiting.  This module alone holds that
rule: ``cli.main``, called in-process, only warns through
`warn_unapplied_threads`, and ``pslr/cli.py`` run as a script refuses to run.
"""

import os
import sys

try:
    import resource
except ImportError:     # no RLIMIT_AS off Unix
    resource = None

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _peek_threads(args):
    """The --threads value in args: None when absent, 0 when not an integer."""
    value = None
    for i, tok in enumerate(args):
        if tok == "--threads" and i + 1 < len(args):
            value = args[i + 1]
        elif tok.startswith("--threads="):
            value = tok.split("=", 1)[1]
    try:
        return int(value) if value is not None else None
    except ValueError:
        return 0


def warn_unapplied_threads(threads: int):
    """Say so when a --threads request cannot reach the BLAS pool.

    Only this launcher exports the thread-count variables before numpy
    loads; called any other way, the request is recorded in the manifest but
    the pool keeps its size.
    """
    if threads > 0 and any(os.environ.get(v) != str(threads) for v in _THREAD_VARS):
        print(f"warning: --threads {threads} is recorded but not applied; only `pslr` "
              "and `python -m pslr` size the BLAS pool before numpy loads", file=sys.stderr)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    threads = _peek_threads(args)
    if threads is None and resource and \
            resource.getrlimit(resource.RLIMIT_AS)[0] != resource.RLIM_INFINITY:
        print("warning: RLIMIT_AS is set, so BLAS runs 1 thread, as OpenBLAS can hang when "
              "an allocation fails under it; --threads N overrides", file=sys.stderr)
        threads = 1
    if threads is not None and threads > 0:
        os.environ.update(dict.fromkeys(_THREAD_VARS, str(threads)))
    from .cli import main as run
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
