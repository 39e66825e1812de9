"""The surface ledger: who uses each public name, keyword and CLI flag.

Usage: python benchmarks/surface.py   (any working directory)

One row per name in a ``repro.*`` ``__all__``, per keyword of the four
facades and ``Kernel``, per field of a layer plan, and per CLI flag,
with the number of files that reference it under ``src/``,
``benchmarks/``, ``bench/``, ``examples/`` and ``tests/``; a flag also
shows which of :data:`DOCUMENTS` pass it to the CLI.  Under ``src/``
the file that defines the thing is left out, and an ``__init__.py``
counts for its code, not for what it re-exports.

A name, keyword or plan field stays public only while something other
than its own test uses it: a row whose first four counts are all zero
is deleted, or listed with its reason in :data:`TEST_ONLY`.  A flag
stays while a test or a CI step runs it.  ``tests/test_surface.py``
holds the tree to both, and CI regenerates
``benchmarks/results/surface.txt`` from here.

A name is counted by whole-word match and a flag by its exact spelling;
in a document, only where a ``python -m repro`` command passes it
(continuation lines included), so a flag of another program with the
same name, or one named in prose, does not count.
A keyword ``k`` of facade ``F`` is counted where ``k`` is passed at a
call of ``F`` or of a constructor that forwards to it, and a field
``f`` of plan ``P`` where ``f`` is passed at a call of ``P``: an AST
walk of the call sites, in which a ``**spread`` passes the keys of a
``dict(...)`` or ``{...}`` it spells inline, or that its name is bound
to or updated with (``name.update(k=...)``) in the same function.  So
``seed=`` handed to something else in a file that also builds a
cluster is not a caller.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TREES = ("src", "benchmarks", "bench", "examples", "tests")
CLI = REPO / "src/repro/__main__.py"
#: The documents that spell CLI flags: each is a column of the flag
#: rows, and ``tests/test_surface.py`` holds every flag they spell to
#: the parser.
DOCUMENTS = (".github/workflows/ci.yml", "README.md", "DESIGN.md", "EXPERIMENTS.md")

#: Facade -> (file holding its ``__init__``, constructors that take its
#: keywords: itself plus whatever forwards ``**kwargs`` to it).
FACADES = {
    "DBTreeCluster": (
        "src/repro/core/client.py",
        ("DBTreeCluster", "ShardedCluster", "centralized_cluster"),
    ),
    "ShardedCluster": ("src/repro/shard/cluster.py", ("ShardedCluster",)),
    "LazyHashTable": ("src/repro/hash/table.py", ("LazyHashTable",)),
    "LazyTrie": ("src/repro/trie/table.py", ("LazyTrie",)),
    "Kernel": ("src/repro/sim/simulator.py", ("Kernel",)),
}

#: Layer plan -> file holding its dataclass.
PLANS = {
    "FaultPlan": "src/repro/sim/failure.py",
    "ReliabilityConfig": "src/repro/sim/reliable.py",
    "CrashPlan": "src/repro/sim/crash.py",
    "PartitionPlan": "src/repro/sim/partition.py",
    "RepairPlan": "src/repro/repair/gossip.py",
    "PermutePlan": "src/repro/sim/permute.py",
}

#: Public names and facade keywords (``Facade.keyword``) that only
#: ``tests/`` reference, each with the reason it stays, stated once.  A
#: plan field or a keyword that only tests set to a value is a module
#: constant instead, which they patch: ``tests/test_surface.py`` lets
#: only ``LazyHashTable.fault_plan``, which selects a layer, stay here.
TEST_ONLY: tuple[tuple[str, str], ...] = (
    (
        "LogNormalLatency",
        "the heavy-tailed network the FIFO and rearrangement tests run "
        "over; exported beside UniformLatency so latency_model= needs no "
        "import from repro.sim.network",
    ),
    (
        "OpenLoopDriver",
        "timed arrivals for the integration and workload tests (the "
        "experiments drive closed loops)",
    ),
    (
        "OperationMix",
        "the conflict-free insert/search/delete stream those tests drive",
    ),
    ("zipf_keys", "the skewed key stream those tests load"),
    (
        "stale_reads",
        "how the freshness tests count reads that missed an acknowledged "
        "write (ROADMAP: a read oracle)",
    ),
    (
        "LazyHashTable.fault_plan",
        "tests run the hash table over a duplicating or lossy substrate "
        "through it; hash-demo and the experiments run it fault-free. It "
        "selects a layer, not a value",
    ),
)


def _is_reexport(node: ast.stmt) -> bool:
    """A docstring, an import or the ``__all__`` assignment."""
    return isinstance(node, (ast.Expr, ast.Import, ast.ImportFrom)) or (
        isinstance(node, ast.Assign)
        and getattr(node.targets[0], "id", None) == "__all__"
    )


def _text(path: Path) -> str:
    """What can reference something in ``path``: all of it, or for an
    ``__init__.py`` whatever is not a re-export."""
    text = path.read_text()
    if path.name != "__init__.py":
        return text
    return "\n".join(
        ast.get_source_segment(text, node)
        for node in ast.parse(text).body
        if not _is_reexport(node)
    )


#: What one file can reference, taken from its text once: every word,
#: every ``--flag``, and the words that start a line (``class`` /
#: ``def`` / assignment at column 0: what the file defines).
_SCANS = {
    "words": r"[A-Za-z_]\w*",
    "flags": r"(?<![\w-])--[a-z][a-z-]*",
    "defined": r"(?m)^(?:class |def )?([A-Za-z_]\w*)",
}


def _dict_keys(node: ast.expr) -> set[str]:
    """The keys a ``dict(k=...)`` call or a ``{"k": ...}`` literal spells."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict":
        return {kw.arg for kw in node.keywords if kw.arg}
    if isinstance(node, ast.Dict):
        return {
            key.value
            for key in node.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
        }
    return set()


def _passed(text: str) -> dict[str, set[str]]:
    """Callee name -> the keywords passed at its call sites in ``text``
    (a ``**spread`` resolved as the module docstring says)."""
    passed: dict[str, set[str]] = {}
    tree = ast.parse(text)
    scopes = [tree] + [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for scope in scopes:
        bound: dict[str, set[str]] = {}
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        keys = bound.setdefault(target.id, set())
                        keys.update(_dict_keys(node.value))
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "update"
                and isinstance(node.func.value, ast.Name)
            ):
                keys = bound.setdefault(node.func.value.id, set())
                keys.update(kw.arg for kw in node.keywords if kw.arg)
                for arg in node.args:
                    keys.update(_dict_keys(arg))
        for node in ast.walk(scope):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if callee is None:
                continue
            keywords = passed.setdefault(callee, set())
            for kw in node.keywords:
                if kw.arg is not None:
                    keywords.add(kw.arg)
                elif isinstance(kw.value, ast.Name):
                    keywords |= bound.get(kw.value.id, set())
                else:
                    keywords |= _dict_keys(kw.value)
    return passed


#: A ``python -m repro`` command in a document: the rest of its line up
#: to a backtick or a shell separator, with its continuation lines.
_COMMAND = re.compile(r"python3? -m repro\b((?:\\\n|[^`|;&\n])*)")


def _scan(text: str) -> dict[str, set[str]]:
    return {kind: set(re.findall(regex, text)) for kind, regex in _SCANS.items()}


def _passed_flags(text: str) -> set[str]:
    """The flags a document passes to the ``repro`` CLI: those on its
    ``python -m repro`` commands, not another program's of the same
    name."""
    return set(re.findall(_SCANS["flags"], " ".join(_COMMAND.findall(text))))


def _sources() -> dict[str, dict[Path, dict[str, set[str]]]]:
    """Every ``*.py`` under each tree, scanned, with the keywords it
    passes at each callee; this file left out (it names the test-only
    entries, which must not count as their callers)."""
    return {
        tree: {
            path: {**_scan(_text(path)), "passed": _passed(path.read_text())}
            for path in sorted((REPO / tree).rglob("*.py"))
            if path != Path(__file__).resolve()
        }
        for tree in TREES
    }


def _counts(sources: dict, kind: str, what: str, skip=(), calling=()) -> list[int]:
    """Files per tree whose ``kind`` scan holds ``what``, the files in
    ``skip`` (where the thing is defined) left out of ``src``; given
    ``calling``, files that pass keyword ``what`` at a call of one of
    those constructors."""

    def holds(scan: dict) -> bool:
        if not calling:
            return what in scan[kind]
        return any(what in scan["passed"].get(callee, ()) for callee in calling)

    return [
        sum(
            1
            for path, scan in files.items()
            if holds(scan) and not (tree == "src" and path in skip)
        )
        for tree, files in sources.items()
    ]


def exported_names() -> dict[str, list[str]]:
    """``name -> packages exporting it`` over every ``__all__`` in ``src``."""
    names: dict[str, list[str]] = {}
    for init in sorted((REPO / "src/repro").rglob("__init__.py")):
        package = ".".join(init.parent.relative_to(REPO / "src").parts)
        for node in ast.parse(init.read_text()).body:
            if isinstance(node, ast.Assign) and _is_reexport(node):
                for name in ast.literal_eval(node.value):
                    names.setdefault(name, []).append(package)
    return names


def facade_keywords(facade: str) -> list[str]:
    """The keywords of ``facade.__init__``, in signature order."""
    tree = ast.parse((REPO / FACADES[facade][0]).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == facade:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    args = item.args
                    return [arg.arg for arg in (args.args + args.kwonlyargs)[1:]]
    raise LookupError(f"no {facade}.__init__ in {FACADES[facade][0]}")


def plan_fields(plan: str) -> list[str]:
    """The fields of dataclass ``plan``, in declaration order."""
    tree = ast.parse((REPO / PLANS[plan]).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == plan:
            return [
                item.target.id for item in node.body if isinstance(item, ast.AnnAssign)
            ]
    raise LookupError(f"no class {plan} in {PLANS[plan]}")


def cli_flags() -> list[str]:
    """Every distinct ``--flag`` an ``add_argument`` call declares."""
    flags = set()
    for node in ast.walk(ast.parse(CLI.read_text())):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "add_argument"
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value.startswith("--")
        ):
            flags.add(node.args[0].value)
    return sorted(flags)


def ledger() -> dict[str, dict[str, list]]:
    """``section -> row -> [src, benchmarks, bench, examples, tests]``
    for names, keywords, plan fields and flags; a flag row goes on with
    ``yes`` / ``no`` per entry of :data:`DOCUMENTS`."""
    sources = _sources()
    names = {}
    for name in sorted(exported_names()):
        defined_in = {
            path for path, scan in sources["src"].items() if name in scan["defined"]
        }
        names[name] = _counts(sources, "words", name, defined_in)
    keywords = {
        f"{facade}.{keyword}": _counts(sources, "passed", keyword, {REPO / home}, callers)
        for facade, (home, callers) in FACADES.items()
        for keyword in facade_keywords(facade)
    }
    fields = {
        f"{plan}.{field}": _counts(sources, "passed", field, {REPO / home}, (plan,))
        for plan, home in PLANS.items()
        for field in plan_fields(plan)
    }
    documents = [_passed_flags((REPO / document).read_text()) for document in DOCUMENTS]
    flags = {
        flag: _counts(sources, "flags", flag, {CLI})
        + ["yes" if flag in spelled else "no" for spelled in documents]
        for flag in cli_flags()
    }
    return {"names": names, "keywords": keywords, "fields": fields, "flags": flags}


def problems(rows: dict[str, dict[str, list]]) -> list[str]:
    """What breaks the rule: a test-only name, keyword or plan field with
    no stated reason, a stated reason that no longer applies, a flag
    nothing runs."""
    allowed = dict(TEST_ONLY)
    public = {**rows["names"], **rows["keywords"], **rows["fields"]}
    found = [f"{name}: in TEST_ONLY but not public" for name in allowed.keys() - public.keys()]
    for name, counts in public.items():
        used = any(counts[:4])
        if not used and name not in allowed:
            found.append(f"{name}: no caller outside tests/, no reason in TEST_ONLY")
        if used and name in allowed:
            found.append(f"{name}: in TEST_ONLY but has callers outside tests/")
    for flag, cells in rows["flags"].items():
        tests, ci = cells[len(TREES) - 1], cells[len(TREES)]
        if not tests and ci == "no":
            found.append(f"{flag}: run by no test and no CI step")
    return found


def render(rows: dict[str, dict[str, list]]) -> str:
    """The ledger as the text ``benchmarks/results/surface.txt`` pins."""
    allowed = dict(TEST_ONLY)
    exported = exported_names()
    lines = []
    columns = tuple(Path(document).name.removesuffix(".md") for document in DOCUMENTS)
    sections = (("names", ()), ("keywords", ()), ("fields", ()), ("flags", columns))
    for section, extra in sections:
        lines.append(f"{section:<36}" + "".join(f"{head:>12}" for head in TREES + extra))
        for name, cells in rows[section].items():
            row = f"{name:<36}" + "".join(f"{cell:>12}" for cell in cells)
            if section == "names":
                row += "  " + ", ".join(exported[name])
            if name in allowed:
                row += "  [tests only]"
            lines.append(row)
        lines.append("")
    lines.append(
        f"{len(rows['names'])} exported names, {len(rows['keywords'])} facade "
        f"keywords, {len(rows['fields'])} plan fields, {len(rows['flags'])} CLI flags"
    )
    lines.append("")
    lines.append("kept though only tests/ reference them:")
    lines += [f"  {name}: {reason}" for name, reason in TEST_ONLY]
    return "\n".join(lines)


def main() -> int:
    rows = ledger()
    print(render(rows))
    found = problems(rows)
    for problem in found:
        print(problem, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
