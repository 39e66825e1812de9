"""The command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestCLI:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        out = capsys.readouterr().out.strip()
        import repro

        assert out == repro.__version__

    def test_protocols_lists_all(self, capsys):
        assert main(["protocols"]) == 0
        out = capsys.readouterr().out
        for name in ("semisync", "sync", "naive", "mobile", "variable"):
            assert name in out

    def test_demo_runs_clean(self, capsys):
        assert main(["demo", "--inserts", "40", "--processors", "2"]) == 0
        out = capsys.readouterr().out
        assert "dB-tree @" in out
        assert "audit: CheckReport(OK" in out

    def test_demo_protocol_choice(self, capsys):
        assert main(
            ["demo", "--inserts", "30", "--protocol", "variable", "--seed", "5"]
        ) == 0
        assert "audit: CheckReport(OK" in capsys.readouterr().out

    def test_naive_demo_fails_audit(self, capsys):
        # The strawman loses keys, so the CLI reports failure (rc 1).
        rc = main(
            ["demo", "--inserts", "300", "--protocol", "naive", "--capacity", "4"]
        )
        assert rc == 1

    def test_hash_demo(self, capsys):
        assert main(["hash-demo", "--inserts", "80"]) == 0
        out = capsys.readouterr().out
        assert "lazy hash table" in out
        assert "audit: CheckReport(OK" in out

    def test_hash_demo_mode_validation(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["hash-demo", "--mode", "bogus"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_with_partition_and_detector(self, capsys):
        rc = main(
            [
                "demo",
                "--inserts", "40",
                "--partition", "0,1@400:900",
                "--detector", "timeout",
                "--detector-horizon", "3000",
                "--op-timeout", "300",
                "--replication-factor", "2",
                "--repair-period", "100",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "audit: CheckReport(OK" in out
        assert "partition: 1 cuts (1 healed" in out
        assert "detector: timeout, period 20:" in out
        assert "repair: ring placement, period 100, fanout 1:" in out

    def test_faults_inventory(self, capsys):
        rc = main(
            [
                "faults",
                "--inserts", "20",
                "--partition", "0,1@100:300",
                "--detector", "phi",
                "--detector-horizon", "1500",
                "--op-timeout", "200",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fault layers @" in out
        assert "partition   on" in out
        assert "detector    on" in out
        assert "seeds:" in out
        assert "partition" in out.split("seeds:")[1]

    @pytest.mark.parametrize("shards", ["1", "2"])
    def test_demo_and_faults_report_every_layer_alike(self, capsys, shards):
        """One layer report, one formatter: for the same flags ``demo``
        prints ``name: detail`` and ``faults`` ``name  on  detail`` with
        the same detail, whether one tree or a forest summed over its
        shards."""
        flags = [
            "--protocol", "variable", "--inserts", "40", "--shards", shards,
            "--crash", "2:150:600", "--partition", "0,1@400:900",
            "--detector", "timeout", "--detector-horizon", "3000",
            "--reliability", "enforced", "--drop-p", "0.05",
            "--op-timeout", "300", "--replication-factor", "2",
            "--repair-period", "100", "--repair-fanout", "2",
        ]
        assert main(["demo", *flags]) == 0
        demo = dict(
            line.split(": ", 1)
            for line in capsys.readouterr().out.splitlines()
            if ": " in line and not line.startswith((" ", "shard ", "dB-tree"))
        )
        assert main(["faults", *flags]) == 0
        inventory, _, _ = capsys.readouterr().out.partition("seeds:")
        faults = {}
        for line in inventory.splitlines()[1:]:
            name, state, *detail = line.split(None, 2)
            faults[name] = (state, detail[0] if detail else "")
        layers = ["faults", "reliability", "crash", "partition", "detector", "repair"]
        if shards == "2":
            layers.append("sharding")
        else:
            assert faults["sharding"] == ("off", "")
        for name in layers:
            assert faults[name] == ("on", demo[name]), name
        assert "period 100, fanout 2" in demo["repair"]  # plan values are not summed
        # timer or signal?  each layer says which one re-sent / re-issued
        assert "retransmits, " in demo["reliability"]
        assert " of them on an ack; " in demo["reliability"]
        assert " by their timer, " in demo["crash"]
        assert demo["crash"].endswith(" failed over")
        assert demo["ops"] == "40 completed, 0 failed, 0 timed out"

    def test_faults_all_layers_off(self, capsys):
        assert main(["faults", "--inserts", "10"]) == 0
        out = capsys.readouterr().out
        assert "partition   off" in out
        assert "detector    off" in out

    def test_partition_spec_validation(self):
        with pytest.raises(SystemExit):
            main(["demo", "--partition", "0,1@"])
        with pytest.raises(SystemExit):
            main(["demo", "--partition-gray", "0>1@100:200"])  # no factor


#: One run per flag that no other test and no CI step drives:
#: ``argv`` (``{tmp}`` is a scratch directory), the exit status, text
#: the flag puts in the output, text it keeps out of it.
_FLAG_RUNS = {
    "--duplicate-p": (
        ["demo", "--inserts", "40", "--duplicate-p", "0.1",
         "--reliability", "enforced"],
        0, "faults: drop=0 dup=0.1 reorder=0", None,
    ),
    "--reorder-p": (
        ["demo", "--inserts", "40", "--reorder-p", "0.2",
         "--reliability", "enforced"],
        0, "faults: drop=0 dup=0 reorder=0.2", None,
    ),
    "--detection-delay": (
        ["demo", "--inserts", "40", "--protocol", "variable",
         "--crash", "1:100:400", "--detection-delay", "30",
         "--op-timeout", "300", "--replication-factor", "2"],
        0, "crash: 1 crashes (1 restarted)", None,
    ),
    "--heartbeat-period": (
        ["faults", "--inserts", "20", "--detector", "timeout",
         "--heartbeat-period", "40", "--detector-horizon", "1500"],
        0, "detector    on   timeout, period 40:", None,
    ),
    "--phi-threshold": (
        ["faults", "--inserts", "20", "--detector", "phi",
         "--phi-threshold", "4", "--detector-horizon", "1500"],
        0, "detector    on   phi, period 20:", None,
    ),
    "--mirror-placement": (
        ["demo", "--inserts", "40", "--protocol", "variable",
         "--crash", "1:100:400", "--op-timeout", "300",
         "--replication-factor", "2", "--repair-period", "100",
         "--mirror-placement", "rendezvous"],
        0, "repair: rendezvous placement, period 100, fanout 1:", None,
    ),
    "--partition-oneway": (
        ["faults", "--inserts", "20", "--partition-oneway", "1>*@100:300",
         "--op-timeout", "200"],
        0, "partition   on   1 cuts (1 healed", None,
    ),
    "--shard-split-threshold": (
        ["demo", "--inserts", "80", "--shard-split-threshold", "30"],
        0, "directory v3, 3 splits, 0 merges", None,
    ),
    "--shard-merge-threshold": (
        ["demo", "--inserts", "20", "--shards", "4",
         "--shard-split-threshold", "100", "--shard-merge-threshold", "8"],
        0, "2 live shards (2 retired), directory v2, 0 splits, 2 merges", None,
    ),
    "--rate": (
        ["permute", "--permute-seeds", "0", "--permute-rounds", "2",
         "--ops", "24", "--rate", "0.6"],
        0, "semisync seed=0: converged (2 permuted schedules", None,
    ),
    "--window": (
        ["permute", "--permute-seeds", "0", "--permute-rounds", "2",
         "--ops", "24", "--window", "15"],
        0, "semisync seed=0: converged (2 permuted schedules", None,
    ),
    "--no-minimize": (
        ["permute", "--protocol", "naive", "--permute-seeds", "0",
         "--permute-rounds", "2", "--no-minimize"],
        1, "naive seed=0: DIVERGED", "minimized to",
    ),
    "--ops": (
        ["bench", "--ops", "300", "--output", "{tmp}/bench.json"],
        0, "standard insert-burst (300 ops)", None,
    ),
    "--sort": (
        ["profile", "--ops", "300", "--sort", "tottime"],
        0, "Ordered by: internal time", None,
    ),
    "--limit": (
        ["profile", "--ops", "300", "--limit", "3"],
        0, "due to restriction <3>", None,
    ),
}


class TestEveryFlagRuns:
    @pytest.mark.parametrize("flag", sorted(_FLAG_RUNS))
    def test_flag_runs_and_shows(self, capsys, tmp_path, flag):
        argv, status, shown, hidden = _FLAG_RUNS[flag]
        assert flag in argv
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == status
        out = capsys.readouterr().out
        assert shown in out
        assert hidden is None or hidden not in out

    @pytest.mark.parametrize("flag", ["--crash-rate", "--mttr"])
    def test_deleted_flag_is_a_usage_error(self, capsys, flag):
        # Stochastic crashes stay a CrashPlan matter (they need a
        # horizon the CLI never set); the flag is gone, not half-wired.
        with pytest.raises(SystemExit) as usage:
            main(["demo", flag, "0.001"])
        assert usage.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
