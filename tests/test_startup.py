"""The package namespace, start-up and exit. ``pcfdr`` exports every name
in the ``__all__`` of each library module. Importing the CLI and running
the scipy-free methods must not load scipy; only the methods that call
``scipy.special``'s ufuncs load compiled modules of it (``pcfdr._special``),
never the package or its array-API layer: Fisher and the Monte Carlo draw
load the C++ module ``_special_ufuncs`` alone, without ``import scipy`` or
scipy's OpenBLAS, and only Stouffer loads ``_ufuncs`` too.
The console entry point ``main`` freezes the garbage collector once ``run``
has returned, and only there; exit status, exit hooks and output are as
without the freeze. ``main``, and only ``main``, caps OpenBLAS at one
thread unless the caller set ``OPENBLAS_NUM_THREADS``, so a run that loads
``scipy.special`` starts no BLAS worker. A run that parses part of its matrix in a forked child
loads no process pool, and its exit hooks and output happen once, as in a
verify run whose Monte Carlo check forks."""

import concurrent.futures
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
# The modules the benchmark's tracer looks up in sys.modules.
MODULES = ["cli", "numerics", "combine", "partial_conjunction", "procedures",
           "pc_testing", "replicability", "simulation"]

SCRIPT = """
import gc, json, sys
import pcfdr.cli
from pcfdr.cli import run

matrix, out, modules = sys.argv[1], sys.argv[2], sys.argv[3:]
state = {"import": "scipy" in sys.modules,
         "missing": [m for m in modules if "pcfdr." + m not in sys.modules]}
assert run(["replicate", matrix, "--q", "0.1", "--method", "simes", "--out", out]) == 0
assert run(["combine", matrix, "--method", "simes", "--u", "2", "--out", out]) == 0
state["simes"] = [m for m in ("scipy", "pcfdr._special", "scipy.special._special_ufuncs")
                  if m in sys.modules]
assert run(["combine", matrix, "--method", "fisher", "--out", out]) == 0
state["fisher"] = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
state["frozen"] = gc.get_freeze_count()
print(json.dumps(state))
"""
# The console entry point as the installed ``pcfdr`` script runs it, after
# an exit hook that tells on standard error whether objects were frozen
# out of the collector by then.
MAIN = """
import atexit, gc, sys
atexit.register(lambda: print("frozen:", gc.get_freeze_count() > 0, file=sys.stderr))
from pcfdr.cli import main
main()
"""
# The console entry point after an exit hook that writes to standard error,
# as JSON, the OPENBLAS_NUM_THREADS it exits with and the process's thread
# count right after numpy loaded and at exit (None each without
# /proc/self/task).
BLAS = """
import atexit, json, os, sys
def threads():
    return len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
import numpy
start = threads()
atexit.register(lambda: print(json.dumps({"openblas": os.environ.get("OPENBLAS_NUM_THREADS"),
                                          "threads": [start, threads()]}), file=sys.stderr))
from pcfdr.cli import main
main()
"""
# Prepended to a script: read_matrix parses any matrix of 1 KB or more that
# it reduces in two ranges, and a Monte Carlo check splits its replicates in two, the
# second part in a forked child; FORKS counts the forks.
SPLIT = """
import os
import pcfdr.cli
pcfdr.cli._MIN_CHUNK, pcfdr._fork._cores = 512, lambda: 2
pcfdr.simulation._MIN_DRAWS = 1
FORKS, fork = [], os.fork
os.fork = lambda: FORKS.append(1) or fork()
"""
# A split replicate run: the forks and which of the modules that a process
# pool or Fisher's method would load were loaded, as JSON.
SPLIT_RUN = SPLIT + """
import json, sys
assert pcfdr.cli.run(["replicate", sys.argv[1], "--q", "0.1", "--method", "simes",
                      "--out", sys.argv[2]]) == 0
print(json.dumps({"forks": len(FORKS), "loaded": [
    m for m in ("multiprocessing", "concurrent.futures", "scipy") if m in sys.modules]}))
"""
# The console entry point after a split: an exit hook appends a line to the
# file named by the first argument, and a line is written to standard
# output, unflushed, before main runs.
SPLIT_MAIN = SPLIT + """
import atexit, sys
def hook(log=sys.argv.pop(1)):
    with open(log, "a") as fh:
        fh.write(f"forks {len(FORKS)}\\n")
atexit.register(hook)
sys.stdout.write("before main\\n")
pcfdr.cli.main()
"""
# A split run through ``run`` of the arguments after the first, after a
# finder that appends to the file named by the first, whenever the import
# system or the loader looks for one of scipy's compiled ufunc modules, the
# module, whether this process looked and how many forks it had made.
# Prints the status, the forks and those lines, as JSON.
SPLIT_LOADS = SPLIT + """
import json, sys
log = sys.argv[1]
class Record:
    def find_spec(self, name, path=None, target=None):
        if name in ("scipy.special._ufuncs", "scipy.special._special_ufuncs"):
            with open(log, "a") as fh:
                fh.write(f"{name} {os.getpid()} {len(FORKS)}\\n")
sys.meta_path.insert(0, Record())
code = pcfdr.cli.run(sys.argv[2:])
with open(log) as fh:
    loads = [[name, int(pid) == os.getpid(), int(forks)]
             for name, pid, forks in map(str.split, fh)]
print(json.dumps({"code": code, "forks": len(FORKS), "loads": loads}))
"""
# The modules loaded after a run through ``run`` of the arguments after
# the first, of those that scipy's compiled ufuncs, scipy, its special
# package and its array-API layer load; the libraries of scipy's own
# ``scipy.libs`` that the process maps, from /proc/self/maps (None
# without it); and then whether ``import scipy.special`` is whole and holds
# the loader's ufuncs. With "before" as the first argument,
# ``import scipy.special`` comes before the run instead.
LOADER = """
import json, os, re, sys
if sys.argv[1] == "before":
    import scipy.special
from pcfdr._special import ufunc
from pcfdr.cli import run
code = run(sys.argv[2:])
loaded = [m for m in ("scipy.special._special_ufuncs", "scipy.special._ufuncs", "scipy",
                      "scipy.special", "scipy._lib._array_api", "numpy.f2py", "numpy.testing")
          if m in sys.modules]
libs = None
if os.path.exists("/proc/self/maps"):
    with open("/proc/self/maps") as maps:
        libs = sorted({m[1] for m in re.finditer(r"/scipy\\.libs/(lib[a-z_]+)", maps.read())})
import scipy.special
print(json.dumps({"code": code, "loaded": loaded, "scipy_libs": libs,
                  "complete": hasattr(scipy.special, "logsumexp"),
                  "shared": all(getattr(scipy.special, f) is ufunc(f)
                                for f in ("gammaincc", "ndtr", "ndtri"))}))
"""
# One thread runs the loader while another imports names from scipy.special
# after the delay in seconds given as the first argument, both released at
# once, scipy itself already loaded, and the interpreter switching threads
# as often as it can. Prints whether scipy.special is whole and whether both
# threads and it share the same ufuncs.
RACE = """
import json, sys, threading, time
import scipy
from pcfdr._special import ufunc
sys.setswitchinterval(1e-6)
start, got = threading.Barrier(2), {}
def loader():
    start.wait()
    got["loader"] = tuple(ufunc(f) for f in ("gammaincc", "ndtr", "ndtri"))
def package():
    start.wait()
    time.sleep(float(sys.argv[1]))
    from scipy.special import gammaincc, logsumexp, ndtr, ndtri
    got["package"] = (gammaincc, ndtr, ndtri)
threads = [threading.Thread(target=f) for f in (loader, package)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
assert not any(t.is_alive() for t in threads)
import scipy.special
print(json.dumps({"complete": hasattr(scipy.special, "logsumexp"),
                  "shared": got["package"] == got["loader"]
                            == (scipy.special.gammaincc, scipy.special.ndtr, scipy.special.ndtri)}))
"""
# A run through ``run`` of the arguments after the first, after a finder
# that refuses, once, to import the compiled module named by the first:
# for ``_ufuncs`` the loader's stand-in import fails, and it imports
# scipy.special in full; for ``_special_ufuncs`` the loader cannot load it
# by file and takes ``_ufuncs`` instead. Prints what scipy.special was when
# the import was refused and what it is after the run: None, "stand-in"
# or "whole".
REFUSED = """
import json, sys
def package():
    package = sys.modules.get("scipy.special")
    return package and ("whole" if hasattr(package, "logsumexp") else "stand-in")
refused = []
class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name == sys.argv[1] and not refused:
            refused.append(package())
            raise ImportError("refused")
sys.meta_path.insert(0, Refuse())
from pcfdr.cli import run
assert run(sys.argv[2:]) == 0
print(json.dumps({"refused": refused, "after": package()}))
"""
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
# The variables that size OpenBLAS's thread pool, the first set winning.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.fixture(scope="module")
def state(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("startup")
    matrix = tmp / "m.csv"
    matrix.write_text("hit,0.0001,0.0002,0.3\nmiss,0.8,0.9,0.4\n")
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(matrix), str(tmp / "out"), *MODULES],
        env=ENV, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_cli_import_loads_every_module_but_not_scipy(state):
    assert state["import"] is False
    assert state["missing"] == []


def test_simes_replicate_and_combine_do_not_load_scipy(state):
    assert state["simes"] == []


def test_fisher_combine_loads_only_the_cxx_ufunc_module(state):
    assert state["fisher"] == ["scipy.special._special_ufuncs"]


def test_run_does_not_freeze(state):
    assert state["frozen"] == 0


def pcfdr(cwd, *argv, stdout=subprocess.PIPE):
    """``pcfdr argv`` through ``main`` in a fresh interpreter in ``cwd``: the
    exit status, standard output (bytes) and the lines of standard error."""
    done = subprocess.run([sys.executable, "-c", MAIN, *argv], cwd=cwd, env=ENV,
                          stdout=stdout, stderr=subprocess.PIPE, timeout=120)
    return done.returncode, done.stdout, done.stderr.decode().splitlines()


@pytest.fixture
def inputs(tmp_path):
    (tmp_path / "m.csv").write_text("hit,0.0001,0.0002,0.3\nmiss,0.8,0.9,0.4\n")
    (tmp_path / "p.csv").write_text("0.001\n0.5\n")
    (tmp_path / "g.txt").write_text("a\nb\n")
    # The adaptive step-up of test_cli's test_verify_bound_violation_exits_3.
    (tmp_path / "s.json").write_text(json.dumps({"checks": [{
        "check": "fdr_pc",
        "scenario": {"m": 40, "n": 3, "true_k": [3] * 30 + [0] * 10,
                     "mu": 4.0, "reps": 300, "seed": 3},
        "method": "simes", "u": 1, "alpha": 0.05, "adaptive_lambda": 0.5}]}))
    return tmp_path


@pytest.mark.parametrize("argv, code", [
    (["replicate", "m.csv", "--q", "0.1", "--method", "simes"], 0),
    (["pc-test", "p.csv", "--alpha", "1.5", "--method", "simes", "--groups", "g.txt"], 2),
    (["verify", "--scenario", "s.json"], 3),
], ids=["replicate", "bad-alpha", "verify-violation"])
def test_main_exits_with_the_status_of_run_after_its_exit_hooks(inputs, argv, code):
    status, out, err = pcfdr(inputs, *argv)
    assert status == code
    assert err[-1] == "frozen: True"
    assert (code == 2) == any(line.startswith("error: ") for line in err)
    if code != 2:
        assert json.loads(out)["schema_version"] == 1


def fisher_pc_test(cwd, **blas):
    """A Fisher ``pc-test`` through ``main`` under BLAS, with the BLAS
    variables set only as in ``blas``: the report of BLAS's exit hook."""
    env = {**{k: v for k, v in ENV.items() if k not in BLAS_VARS}, **blas}
    done = subprocess.run(
        [sys.executable, "-c", BLAS, "pc-test", "p.csv", "--alpha", "0.05",
         "--method", "fisher", "--groups", "g.txt"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stderr.splitlines()[-1])


def test_run_leaves_the_environment_alone(monkeypatch, inputs):
    from pcfdr.cli import run
    for name in BLAS_VARS:
        monkeypatch.delenv(name, raising=False)
    before = dict(os.environ)
    assert run(["combine", str(inputs / "m.csv"), "--method", "fisher",
                "--out", str(inputs / "c.csv")]) == 0
    assert dict(os.environ) == before


def test_main_caps_openblas_at_one_thread(inputs):
    assert fisher_pc_test(inputs)["openblas"] == "1"


def test_main_keeps_the_openblas_threads_the_caller_set(inputs):
    assert fisher_pc_test(inputs, OPENBLAS_NUM_THREADS="2")["openblas"] == "2"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2,
                    reason="counts Linux threads; OpenBLAS starts workers on 2 or more cores")
def test_fisher_pc_test_through_main_starts_no_thread(inputs):
    # numpy's OpenBLAS loaded before main ran and started its workers;
    # the one that scipy.special loads during the run starts none.
    start, end = fisher_pc_test(inputs)["threads"]
    assert end == start


def test_combine_to_a_pipe_writes_what_out_writes(inputs):
    argv = ["combine", "m.csv", "--method", "simes", "--u", "2"]
    status, piped, _ = pcfdr(inputs, *argv)
    assert status == 0
    assert pcfdr(inputs, *argv, "--out", "c.csv")[0] == 0
    assert piped == (inputs / "c.csv").read_bytes()
    assert piped.startswith(b"hit,0.000") and piped.count(b"\n") == 2


def test_closed_stdout_pipe_exits_2_without_a_traceback(inputs):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        status, _, err = pcfdr(inputs, "replicate", "m.csv", "--q", "0.1",
                               "--method", "simes", stdout=write_end)
    finally:
        os.close(write_end)
    assert status == 2
    errors = [line for line in err if line.startswith("error: ")]
    assert len(errors) == 1 and errors[0].startswith("error: cannot write standard output: ")
    assert not any("Traceback" in line or "Exception ignored" in line for line in err)


@pytest.mark.parametrize("module", [m for m in MODULES if m != "cli"])
def test_package_exports_every_name_in_the_module_all(module):
    package, mod = importlib.import_module("pcfdr"), importlib.import_module(f"pcfdr.{module}")
    assert [name for name in mod.__all__
            if getattr(package, name, None) is not getattr(mod, name)] == []


def split_matrix(tmp_path):
    """A 60-row matrix with ids, 2 KB or more."""
    path = tmp_path / "big.csv"
    path.write_text("".join(f"g{i},{0.5 ** (i % 30):.17g},0.12345678901234567,0.3\n"
                            for i in range(60)))
    assert path.stat().st_size >= 2048
    return path


def test_split_replicate_loads_no_pool_and_no_scipy(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", SPLIT_RUN, str(split_matrix(tmp_path)), str(tmp_path / "r.json")],
        env=ENV, capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(done.stdout) == {"forks": 1, "loaded": []}


def split_main(tmp_path, *argv):
    """``pcfdr argv`` through ``main`` after SPLIT_MAIN's set-up, run to
    completion; its exit hook has run once, after one fork, and it has
    written one report after "before main". Standard output is a pipe,
    so "before main" stays in its buffer, which a child inherits, unless
    the interpreter is unbuffered."""
    log = tmp_path / "hook.log"
    done = subprocess.run(
        [sys.executable, "-c", SPLIT_MAIN, str(log), *argv],
        env={k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"},
        cwd=tmp_path, capture_output=True, timeout=120)
    assert log.read_text() == "forks 1\n"
    head, report = done.stdout.split(b"\n", 1)
    assert head == b"before main"
    assert json.loads(report)["schema_version"] == 1  # one report, nothing after it
    return done


def test_forked_parse_runs_exit_hooks_and_writes_output_once(tmp_path):
    done = split_main(tmp_path, "replicate", str(split_matrix(tmp_path)),
                      "--q", "0.1", "--method", "simes")
    assert done.returncode == 0, done.stderr
    assert done.stderr == b""


def test_forked_verify_runs_exit_hooks_writes_output_once_and_exits_3(inputs):
    done = split_main(inputs, "verify", "--scenario", "s.json")
    assert done.returncode == 3, done.stderr
    assert done.stderr == b""


def python(script, *argv, cwd=None):
    """The JSON that ``script`` prints, run with ``argv`` in a fresh
    interpreter."""
    done = subprocess.run([sys.executable, "-c", script, *argv], cwd=cwd, env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


CXX = ["scipy.special._special_ufuncs"]


@pytest.mark.parametrize("argv, code, loaded", [
    (["pc-test", "p.csv", "--alpha", "0.05", "--method", "fisher", "--groups", "g.txt",
      "--out", "r.json"], 0, CXX),
    (["combine", "m.csv", "--method", "stouffer", "--out", "c.csv"], 0,
     [*CXX, "scipy.special._ufuncs", "scipy"]),
    (["verify", "--scenario", "s.json", "--out", "r.json"], 3, CXX),
], ids=["fisher-pc-test", "stouffer-combine", "verify"])
def test_scipy_runs_load_only_the_compiled_ufuncs_they_call(inputs, argv, code, loaded):
    state = python(LOADER, "after", *argv, cwd=inputs)
    libs = state.pop("scipy_libs")
    assert state == {"code": code, "loaded": loaded, "complete": True, "shared": True}
    if libs is not None:  # Linux: scipy's OpenBLAS comes with _ufuncs alone
        assert ("libscipy_openblas" in libs) if "scipy.special._ufuncs" in loaded else libs == []


def test_loader_after_import_scipy_special_returns_its_ufuncs(inputs):
    state = python(LOADER, "before", "combine", "m.csv", "--method", "fisher", "--out", "c.csv",
                   cwd=inputs)
    assert (state["code"], state["complete"], state["shared"]) == (0, True, True)


def test_loader_racing_import_scipy_special_leaves_it_whole():
    # The delays, 0 to 9.5 ms, span the loader's load of _special_ufuncs by
    # file, which the other thread's import may meet in sys.modules or load
    # again, and then of _ufuncs, when a stand-in package would be in
    # sys.modules. A loader that
    # used the stand-in with the other thread alive, even holding the
    # import lock, failed here at delays of 1 to 6 ms on 2 cores: the other
    # thread's ``from scipy.special import ...`` met the stand-in.
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        states = list(pool.map(lambda i: python(RACE, str(i / 2000)), range(20)))
    assert states == [{"complete": True, "shared": True}] * 20


@pytest.mark.parametrize("module, method, refused, after", [
    ("scipy.special._ufuncs", "stouffer", "stand-in", "whole"),
    ("scipy.special._special_ufuncs", "fisher", None, None),
], ids=["ufuncs", "special_ufuncs"])
def test_refused_compiled_import_falls_back_with_the_same_report(inputs, module, method,
                                                                  refused, after):
    argv = ["pc-test", "p.csv", "--alpha", "0.05", "--method", method, "--groups", "g.txt"]
    assert python(REFUSED, module, *argv, "--out", "fallback.json", cwd=inputs) == {
        "refused": [refused], "after": after}
    assert pcfdr(inputs, *argv, "--out", "r.json")[0] == 0
    assert (inputs / "fallback.json").read_bytes() == (inputs / "r.json").read_bytes()


@pytest.mark.parametrize("method, loaded", [
    ("simes", CXX), ("stouffer", [*CXX, "scipy.special._ufuncs"])])
def test_forked_check_loads_each_compiled_module_once_before_its_fork(inputs, method, loaded):
    # The draw's module is loaded before the fork, Stouffer's _ufuncs in
    # the dry run on an empty stack; a child finds both in sys.modules.
    spec = json.loads((inputs / "s.json").read_text())
    check = spec["checks"][0]
    check["method"] = method
    del check["adaptive_lambda"]
    (inputs / "plain.json").write_text(json.dumps(spec))
    assert python(SPLIT_LOADS, str(inputs / "loads.log"), "verify", "--scenario", "plain.json",
                  "--out", "r.json", cwd=inputs) == {
        "code": 0, "forks": 1, "loads": [[name, True, 0] for name in loaded]}
