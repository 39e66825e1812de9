"""The opcode ruler: the Python work a burst does, counted exactly."""

from repro.perf import count_opcodes, run_insert_burst

CONFIG = run_insert_burst(20)["config"]


def test_count_is_a_pure_function_of_code_and_seed():
    first = count_opcodes(60, CONFIG)
    assert count_opcodes(60, CONFIG) == first
    assert first["total"] == sum(first["by_subpackage"].values())
    assert first["per_op"] == first["total"] / 60
    assert {"core", "sim", "protocols"} <= set(first["by_subpackage"])


def test_preload_is_not_counted():
    read = dict(CONFIG, protocol="variable", preload=40)
    small = count_opcodes(30, read)
    large = count_opcodes(30, dict(read, preload=400))
    # The measured loop is 30 ops either way; a counted preload of 400
    # inserts would dwarf it.
    assert large["total"] < 2 * small["total"]
