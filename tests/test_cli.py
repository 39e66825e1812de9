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
        assert demo["crash"].endswith(" by their recovered home")
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
