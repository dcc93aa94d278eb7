"""The benchmark's tracer (bench/tracing.py) wraps tuttekit's functions by
name and reads the reduced arrangements it sees.  These checks load it
read-only, so that removing or renaming a traced name fails here as well as
under `python3 -m pytest bench`."""

import contextlib
import importlib.util
import io
from pathlib import Path

import tuttekit
import tuttekit.cli
from tuttekit.arrangement import Arrangement
from tuttekit.finite_field import reduce_mod_p

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing()
    for mod_name, qual, _ in tracing.TARGETS:
        obj = getattr(tuttekit, mod_name)
        for part in qual.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (mod_name, qual)
    for qual, aliases in tracing._ALIASES.items():
        cls = getattr(tuttekit.multipoly, qual.split(".")[0])
        for alias in aliases:
            assert alias in vars(cls), (qual, alias)


def test_reduction_has_what_the_point_hook_reads():
    arr = Arrangement(2, [([1, 0], 0), ([0, 0], 0), ([1, 1], 1)])
    red = reduce_mod_p(arr, 5)
    assert (red.prime, red.dim, len(red.rows)) == (5, 2, 2)


def test_traced_finite_field_run_counts_points():
    tracer = _tracing().Tracer(tuttekit)
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = tuttekit.cli.main(["family", "braid", "--n", "3", "tutte",
                                      "--method", "finite-field"])
    finally:
        tracer.uninstall()
    assert code == 0
    figures = tracer.metrics(0, 0)
    assert figures["finite_field.points"][0] > 0
    assert figures["finite_field.primes_accepted"][0] > 0
    assert figures["linalg.rank_calls"][0] > 0
