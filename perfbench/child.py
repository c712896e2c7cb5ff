"""One measured (or input-generating) process of the benchmark.

``run.py`` starts a fresh interpreter on this file for every step, so each
measurement pays cold caches exactly as a command-line user does:

    child.py gen <spec-json>            write one workload input, print a manifest
    child.py setup <models-json>        time `import edgeinv` + builtin_model(...)
    child.py solve <0|1> <argv-json>    time edgeinv.cli.main(argv); 1 = traced

Each mode prints one JSON object as its last line of standard output.  Only
the standard library is imported at module level, so the set-up clock starts
before numpy, scipy or edgeinv are loaded.  A timed set-up or untraced solve
runs under a ``Speedometer``, which measures how fast the shared machine runs
just before and after it, so that ``run.py`` can scale the time to the
baseline speed.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

OPENBLAS_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_",
                           "openblas_get_num_threads")
PROBE_BURST = 12


def _caterpillar(taxa: list[str]) -> str:
    newick = f"({taxa[0]},{taxa[1]})"
    for name in taxa[2:]:
        newick = f"({newick},{name})"
    return newick + ";"


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps
                       if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in OPENBLAS_THREAD_QUERIES:
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return int(query())
    return None


def _machine() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gib": round(os.sysconf("SC_PAGE_SIZE")
                         * os.sysconf("SC_PHYS_PAGES") / 2 ** 30, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def gen(spec: dict) -> dict:
    """Simulate one input from the public API: a caterpillar tree with a
    seeded random equivariant presentation, saved as an exact tensor in the
    binary container or, when ``sites`` is set, sampled into a FASTA file."""
    import edgeinv as ei

    n = spec["leaves"]
    taxa = [f"t{i:02d}" for i in range(1, n + 1)]
    tree, names = ei.from_newick(_caterpillar(taxa))
    model = ei.builtin_model(spec["model"])
    psi = ei.joint_distribution(
        ei.random_presentation(model, tree, spec["seed"]))
    if spec["sites"] is None:
        ei.save_tensor(psi, spec["path"])
    else:
        alignment = ei.sample_alignment(
            psi, spec["sites"], spec["seed"],
            taxa=[names[i] for i in range(1, n + 1)])
        with open(spec["path"], "w") as out:
            out.write(ei.write_fasta(alignment))
    truth = sorted(sorted(split.side) for split in tree.interior_splits())
    return {"truth": truth, "machine": _machine(), "package": ei.__file__}


def probe() -> float:
    """Seconds for a fixed piece of pure-Python dict work, about 2.5 ms.  It
    runs none of the program's code, so its time follows only the speed of
    the machine, which on a shared host changes from one second to the next.
    Its keys are ints, which the cyclic garbage collector does not track."""
    start = time.perf_counter()
    table = {j * 7919 % 100_003: j for j in range(11000)}
    total = 0
    for k in range(0, 11000, 2):
        total += table[k * 7919 % 100_003]
    return time.perf_counter() - start


class Speedometer:
    """Times a step and measures the machine's speed around it.

    ``PROBE_BURST`` runs of ``probe()`` just before the clock starts and as
    many just after it stops, with garbage collection held off, give
    ``probe_s``: their median.  They read the slow swings of the machine's
    speed, which last seconds to minutes; faster changes are left to the
    median over a run's many solves.  The step itself runs undisturbed.
    ``net_s`` is the step's wall time.
    """

    def __enter__(self) -> "Speedometer":
        self.probes = _burst()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.net_s = time.perf_counter() - self._start
        self.probes += _burst()
        self.probe_s = statistics.median(self.probes)


def _burst() -> list[float]:
    collecting = gc.isenabled()
    gc.disable()
    try:
        return [probe() for _ in range(PROBE_BURST)]
    finally:
        if collecting:
            gc.enable()


def setup(models: list[str]) -> dict:
    with Speedometer() as meter:
        import edgeinv

        for name in models:
            edgeinv.builtin_model(name)
    return {"setup_s": meter.net_s, "probe_s": meter.probe_s}


def solve(traced: bool, argv: list[str]) -> dict:
    from edgeinv import cli

    recorder = None
    if traced:
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
    captured = io.StringIO()
    raised = None
    code = None
    # A traced solve is not scaled: its spans give shares of its own time.
    meter = Speedometer() if recorder is None else contextlib.nullcontext()
    try:
        with meter, contextlib.redirect_stdout(captured):
            if recorder is None:
                code = cli.main(argv)
            else:
                code = recorder.call("cli", cli.main, argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        raised = f"SystemExit({exc.code})"
    except Exception:
        raised = traceback.format_exc(limit=-3)
    return {
        "exit": code,
        "raised": raised,
        "solve_s": meter.net_s if recorder is None else recorder.root_s,
        "probe_s": meter.probe_s if recorder is None else None,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stdout": captured.getvalue(),
        "trace": recorder.summary() if recorder is not None else None,
    }


def main() -> int:
    mode, arg = sys.argv[1], sys.argv[2:]
    if mode == "gen":
        result = gen(json.loads(arg[0]))
    elif mode == "setup":
        result = setup(json.loads(arg[0]))
    elif mode == "solve":
        result = solve(arg[0] == "1", json.loads(arg[1]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
