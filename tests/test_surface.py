"""The public surface carries only verified traffic.

``benchmarks/surface.py`` counts who references each exported name,
facade keyword, layer-plan field and CLI flag (the flags are the
``add_argument`` calls of ``repro.__main__``); these tests hold the
tree to its rule and the documents to the parser.
"""

import importlib.util
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load_ledger():
    spec = importlib.util.spec_from_file_location(
        "surface", REPO / "benchmarks/surface.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_public_name_keyword_and_flag_has_a_caller():
    """An exported name, a facade keyword or a plan field that nothing
    outside ``tests/`` uses is deleted or carries its reason in
    ``TEST_ONLY`` (and a reason that stopped applying is struck); every
    CLI flag is run by a test or a CI step."""
    surface = load_ledger()
    assert surface.problems(surface.ledger()) == []


def test_plan_fields_are_held_to_the_rule():
    surface = load_ledger()
    rows = surface.ledger()
    rows["fields"]["CrashPlan.schedule"] = [0, 0, 0, 0, 3]
    rows["keywords"]["LazyHashTable.fault_plan"] = [1, 0, 0, 0, 2]
    assert surface.problems(rows) == [
        "LazyHashTable.fault_plan: in TEST_ONLY but has callers outside tests/",
        "CrashPlan.schedule: no caller outside tests/, no reason in TEST_ONLY",
    ]


def test_no_tuning_value_is_kept_for_tests_alone():
    """A value that only tests set is a module constant they patch, not
    a plan field or a facade keyword.  ``LazyHashTable.fault_plan``
    stays: it selects a layer rather than a value."""
    surface = load_ledger()
    rows = surface.ledger()
    kept = {name for name, _reason in surface.TEST_ONLY}
    assert not kept & rows["fields"].keys()
    assert kept & rows["keywords"].keys() <= {"LazyHashTable.fault_plan"}


def test_a_keyword_counts_only_at_its_facades_call_sites():
    surface = load_ledger()
    passed = surface._passed(
        "def build(args):\n"
        "    LazyHashTable(num_processors=4)\n"
        "    kwargs = dict(seed=1, fault_plan=None)\n"
        "    kwargs.update(op_timeout=300.0)\n"
        "    DBTreeCluster(**kwargs, protocol='variable')\n"
        "    Kernel(4, **{'accounting': 'full'})\n"
    )
    assert passed["LazyHashTable"] == {"num_processors"}
    assert passed["DBTreeCluster"] == {
        "seed",
        "fault_plan",
        "op_timeout",
        "protocol",
    }
    assert passed["Kernel"] == {"accounting"}


#: Flags of other programs that the same documents spell.
FOREIGN_FLAGS = {
    "--benchmark-disable": "pytest-benchmark",
    "--benchmark-only": "pytest-benchmark",
    "--timeout": "pytest-timeout",
    "--exit-code": "git diff",
    "--workload": "bench/run.py",
    "--scale": "bench/run.py",
    "--seconds": "bench/run.py",
    "--trace": "bench/run.py",
}


def test_every_documented_flag_exists():
    surface = load_ledger()
    known = set(surface.cli_flags())
    for document in surface.DOCUMENTS:
        spelled = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", (REPO / document).read_text()))
        assert spelled - FOREIGN_FLAGS.keys() <= known, document
