"""Which functions under ``src/repro`` does a set of commands never enter?

A stdlib call recorder.  It answers one question for the code review of
``src/``: is there a function that nothing but its own unit tests
reaches?  Run it from the repository root::

    python tests/tools/reach.py corpus OUT     # record the CI corpus into OUT
    python tests/tools/reach.py record OUT -- CMD [ARG ...]   # or any command
    python tests/tools/reach.py report OUT     # functions no record enters

``record`` runs one command with a ``sys.setprofile`` recorder in it and
in every Python process it starts: the recorder is loaded by a
``sitecustomize`` module written into ``OUT/hook``, whose directory is
put first on ``PYTHONPATH``.  Each process appends one line per newly
entered ``src/repro`` code object to ``OUT/<pid>.tsv`` as it goes, so a
process that is killed still leaves its record.

Two things would silently empty the record, and the recorder stops
both: pytest-benchmark's ``PauseInstrumentation`` calls
``sys.setprofile(None)`` around every benchmarked function, and
threads start without a profiler.  Once the recorder is on,
``sys.setprofile`` ignores every later call, and ``threading`` hands the
recorder to new threads.

``corpus`` records :data:`CORPUS`: what CI and the README run outside
the unit tests.  ``report`` then lists every function definition in
``src/repro`` whose body no recorded process entered, outermost only (a
nested function of an unentered one is not listed again), with its
length in lines, and the total.
"""

from __future__ import annotations

import ast
import functools
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: one ``(name, argv)`` per corpus command; argv[0] "python" is this interpreter
CORPUS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    *((f"example {p.stem}", ("python", str(p)))
      for p in sorted((ROOT / "examples").glob("*.py"))),
    # the three `repro lossy` runs of .github/workflows/ci.yml
    ("ci lossy churn", ("python", "-m", "repro", "lossy", "--nodes", "50", "--loss", "0.05",
                        "--duplicate", "0.01", "--churn", "0.1", "--duration", "30",
                        "--seed", "7", "--check-invariants")),
    ("ci lossy vnodes+shed", ("python", "-m", "repro", "lossy", "--nodes", "20", "--vnodes",
                              "4", "--shed", "5", "--duration", "10", "--seed", "3",
                              "--check-invariants")),
    ("ci lossy replication", ("python", "-m", "repro", "lossy", "--nodes", "20", "--duration",
                              "8", "--replication", "2", "--check-invariants", "--seed", "11")),
    # every CLI subcommand the README names, with the options it shows
    ("table1", ("python", "-m", "repro", "table1")),
    ("demo", ("python", "-m", "repro", "demo")),
    ("ring-stats", ("python", "-m", "repro", "ring-stats")),
    ("load", ("python", "-m", "repro", "load", "--nodes", "50", "100")),
    ("distribution", ("python", "-m", "repro", "distribution", "--nodes", "200")),
    ("overhead", ("python", "-m", "repro", "overhead")),
    ("overhead r0.2", ("python", "-m", "repro", "overhead", "--radius", "0.2")),
    ("hops", ("python", "-m", "repro", "hops")),
    ("baselines", ("python", "-m", "repro", "baselines")),
    ("lossy", ("python", "-m", "repro", "lossy", "--check-invariants")),
    ("lossy replication", ("python", "-m", "repro", "lossy", "--replication", "3")),
    ("lossy quorum", ("python", "-m", "repro", "lossy", "--replication", "3",
                      "--consistency", "quorum")),
    ("lossy vnodes+shed", ("python", "-m", "repro", "lossy", "--vnodes", "4", "--shed", "5")),
    ("lint", ("python", "-m", "repro", "lint")),
    ("lint src tests", ("python", "-m", "repro", "lint", "src", "tests")),
    ("flow", ("python", "-m", "repro", "flow", "--dot", "flow-graph.dot")),  # as CI runs it
    ("protocol", ("python", "-m", "repro", "protocol")),
    ("protocol --json", ("python", "-m", "repro", "protocol", "--json")),
    # the reference benchmark and the figure benches, as CI's bench-smoke job runs them
    ("suite smoke", ("python", "benchmarks/suite/run.py", "--smoke", "--trace")),
    ("figure benches", ("python", "-m", "pytest", "benchmarks", "--benchmark-only",
                        "--ignore=benchmarks/suite", "-q")),
)

#: the README's three-node cluster: nodes on these ports, then client RPCs
CLUSTER_PORTS = (9701, 9702, 9703)
CLUSTER_VALUES = "0.84,0.99,0.43,-0.35,-0.93,-0.83,-0.17,0.66,0.98,0.55,-0.21,-0.88"
CLUSTER_PATTERN = "-0.35,-0.93,-0.83,-0.17,0.66,0.98,0.55,-0.21"


# ----------------------------------------------------------------------
# the recorder, loaded into every process by the sitecustomize hook
# ----------------------------------------------------------------------
def start(out_dir: str) -> None:
    """Record every ``src/repro`` code object this process enters."""
    prefix = str(PACKAGE) + os.sep
    seen: Dict[int, object] = {}  # id -> code; holding the code pins its id
    out = open(os.path.join(out_dir, f"{os.getpid()}.tsv"), "a", buffering=1)

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in seen:
                seen[id(code)] = code
                if code.co_filename.startswith(prefix):
                    out.write(f"{code.co_filename[len(prefix):]}\t"
                              f"{code.co_firstlineno}\t{code.co_qualname}\n")

    sys.setprofile(profile)
    threading.setprofile(profile)
    # keep the recorder on: later callers (pytest-benchmark) may not switch it off
    sys.setprofile = lambda fn: None


def _hook(out: Path) -> Dict[str, str]:
    """Write ``out/hook/sitecustomize.py``; the environment that loads it."""
    hook = out / "hook"
    hook.mkdir(parents=True, exist_ok=True)
    (hook / "sitecustomize.py").write_text(
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "import reach\n"
        "del sys.path[0]\n"
        f"reach.start({str(out)!r})\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(hook), str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def _argv(cmd: Sequence[str]) -> List[str]:
    return [sys.executable if a == "python" else a for a in cmd]


def record(out: Path, cmd: Sequence[str], log=None) -> int:
    """Run ``cmd`` from the repository root with the recorder; its exit code.

    Its output goes to the open file ``log`` if given.
    """
    return subprocess.call(_argv(cmd), cwd=ROOT, env=_hook(out),
                           stdout=log, stderr=log)


def record_cluster(out: Path, log=None) -> int:
    """The README's cluster: three ``repro node`` processes, then the client."""
    env = _hook(out)
    repro = [sys.executable, "-m", "repro"]
    nodes = []
    try:
        for i, port in enumerate(CLUSTER_PORTS):
            join = ["--join", f"127.0.0.1:{CLUSTER_PORTS[0]}"] if i else []
            nodes.append(subprocess.Popen(
                repro + ["node", "--listen", f"127.0.0.1:{port}", "--window", "8",
                         "--nper", "200", *join],
                cwd=ROOT, env=env, stdout=log, stderr=log))
            time.sleep(1.0)
        client = repro + ["client", "--connect"]
        calls = (
            [f"127.0.0.1:{CLUSTER_PORTS[1]}", "publish", "--stream", "s1",
             "--values", CLUSTER_VALUES],
            [f"127.0.0.1:{CLUSTER_PORTS[0]}", "query", f"--pattern={CLUSTER_PATTERN}",
             "--radius", "1.5", "--wait", "5"],
            [f"127.0.0.1:{CLUSTER_PORTS[2]}", "status"],
        )
        return max(subprocess.call(client + c, cwd=ROOT, env=env,
                                   stdout=log, stderr=log, timeout=60)
                   for c in calls)
    finally:
        for node in nodes:  # SIGTERM is the graceful leave
            node.send_signal(signal.SIGTERM)
        for node in nodes:
            try:
                node.wait(timeout=10)
            except subprocess.TimeoutExpired:
                node.kill()
                node.wait()


def corpus(out: Path) -> int:
    """Record every :data:`CORPUS` command and the cluster; failures counted.

    Each command's output goes to ``out/logs/<name>.log``.
    """
    runs = [(name, functools.partial(record, out, cmd)) for name, cmd in CORPUS]
    runs.append(("cluster node+client", functools.partial(record_cluster, out)))
    (out / "logs").mkdir(parents=True, exist_ok=True)
    failed = 0
    for name, run in runs:
        t0 = time.time()
        with open(out / "logs" / f"{name.replace(' ', '_')}.log", "w") as log:
            code = run(log=log)
        print(f"{name}: exit {code} ({time.time() - t0:.0f} s)", flush=True)
        failed += code != 0
    return failed


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------
def entered(out: Path) -> Set[Tuple[str, int]]:
    """``(path under src/repro, first line)`` of every recorded code object."""
    keys: Set[Tuple[str, int]] = set()
    for tsv in out.glob("*.tsv"):
        for line in tsv.read_text().splitlines():
            path, first, _ = line.split("\t")
            keys.add((path, int(first)))
    return keys


def functions(path: Path) -> Iterator[Tuple[str, int, int]]:
    """``(qualname, first line, last line)`` of each function in ``path``.

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    def walk(node: ast.AST, prefix: str) -> Iterator[Tuple[str, int, int]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                yield name, first, child.end_lineno
                yield from walk(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)

    yield from walk(ast.parse(path.read_text(), str(path)), "")


def unentered(out: Path) -> List[Tuple[str, int, str, int]]:
    """``(path, line, qualname, lines)`` of each outermost unentered function."""
    keys = entered(out)
    rows = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = str(path.relative_to(PACKAGE))
        skip_to = 0
        for name, first, last in functions(path):
            if first <= skip_to:
                continue  # nested in a function already listed
            if (rel, first) not in keys:
                rows.append((rel, first, name, last - first + 1))
                skip_to = last
    return rows


def report(out: Path) -> None:
    rows = unentered(out)
    for rel, first, name, lines in rows:
        print(f"{lines:5d}  src/repro/{rel}:{first}  {name}")
    print(f"{sum(r[3] for r in rows)} lines in {len(rows)} functions never entered")


def main(argv: Sequence[str]) -> int:
    if len(argv) >= 2 and argv[0] == "corpus":
        return 1 if corpus(Path(argv[1]).resolve()) else 0
    if len(argv) >= 4 and argv[0] == "record" and argv[2] == "--":
        return record(Path(argv[1]).resolve(), argv[3:])
    if len(argv) == 2 and argv[0] == "report":
        report(Path(argv[1]).resolve())
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
