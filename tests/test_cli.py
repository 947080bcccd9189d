"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "figure8" in out
        assert "ablation_ndim" in out


class TestRun:
    def test_run_single_fast_experiment(self, capsys):
        assert main(["run", "table3"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "paper vs measured" in out

    def test_run_multiple(self, capsys):
        assert main(["run", "figure1", "figure2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "worked example" in out or "walkthrough" in out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["run", "bogus"]) == 2
        assert "unknown experiments" in capsys.readouterr().err


class TestStudy:
    def test_generates_json(self, tmp_path, capsys):
        out_path = tmp_path / "study.json"
        assert main(["study", "--out", str(out_path), "--seed", "7"]) == 0
        payload = json.loads(out_path.read_text())
        assert len(payload["passwords"]) == 481
        assert "191 participants" in capsys.readouterr().out


class TestStore:
    def test_create_login_dump_attack_roundtrip(self, tmp_path, capsys):
        uri = f"sqlite:{tmp_path / 'store.db'}"
        assert main(["store", "create", uri, "--users", "3"]) == 0
        out = capsys.readouterr().out
        assert "enrolled 3 new accounts" in out

        # Re-running resumes instead of re-enrolling.
        assert main(["store", "create", uri, "--users", "3"]) == 0
        assert "3 already present" in capsys.readouterr().out

        # The dump is the attacker-visible password file.
        assert main(["store", "dump", uri]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 3
        username = sorted(payload)[0]

        # A wrong-password login is rejected (exit code 1) and counts
        # toward the lockout streak; the right points would be accepted.
        points = "40,50;100,90;160,130;220,170;280,210"
        assert main(["store", "login", uri, "--user", username, "--points", points]) == 1
        assert "rejected" in capsys.readouterr().out
        for _ in range(2):
            main(["store", "login", uri, "--user", username, "--points", points])
        capsys.readouterr()
        assert main(["store", "login", uri, "--user", username, "--points", points]) == 3
        assert "locked" in capsys.readouterr().out

        # Offline grind of the stolen file runs end to end.
        assert main(["store", "attack", uri, "--budget", "10"]) == 0
        out = capsys.readouterr().out
        assert "stolen file" in out
        assert "cracked" in out

    def test_recreate_with_mismatched_deployment_refused(self, tmp_path, capsys):
        uri = f"sqlite:{tmp_path / 'store.db'}"
        assert main(["store", "create", uri, "--users", "1"]) == 0
        capsys.readouterr()
        # Different scheme (or tolerance/image) must not overwrite the
        # persisted deployment meta under the enrolled records.
        assert main(["store", "create", uri, "--users", "1", "--scheme", "robust"]) == 2
        assert "refusing" in capsys.readouterr().err
        assert main(["store", "create", uri, "--users", "1", "--tolerance", "4"]) == 2
        capsys.readouterr()
        # Matching deployment still resumes fine.
        assert main(["store", "create", uri, "--users", "1"]) == 0
        assert "1 already present" in capsys.readouterr().out

    def test_attack_without_create_fails_cleanly(self, tmp_path, capsys):
        uri = f"sqlite:{tmp_path / 'empty.db'}"
        assert main(["store", "attack", uri]) == 2
        assert "store create" in capsys.readouterr().err

    def test_bad_uri_fails_cleanly(self, capsys):
        assert main(["store", "dump", "redis:somewhere"]) == 2
        assert "unknown storage backend" in capsys.readouterr().err
        assert main(["store", "create", "sqlite:"]) == 2
        assert "needs a path" in capsys.readouterr().err

    def test_login_without_create_fails(self, tmp_path, capsys):
        uri = f"sqlite:{tmp_path / 'empty.db'}"
        code = main(
            ["store", "login", uri, "--user", "ghost", "--points", "1,1;2,2;3,3;4,4;5,5"]
        )
        assert code == 2
        assert "store create" in capsys.readouterr().err

    def test_malformed_points_rejected(self, tmp_path, capsys):
        uri = f"sqlite:{tmp_path / 'store.db'}"
        main(["store", "create", uri, "--users", "1"])
        capsys.readouterr()
        code = main(["store", "login", uri, "--user", "user0", "--points", "nonsense"])
        assert code == 2
        assert "malformed" in capsys.readouterr().err


class TestServeFlood:
    def test_flood_self_hosted_on_sharded_backend(self, tmp_path, capsys):
        uri = f"shards:sqlite:{tmp_path / 'f'}{{0..1}}.db"
        code = main(
            ["flood", uri, "--users", "4", "--attempts", "80", "--clients", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "logins/s" in out
        assert "p95" in out
        assert "locked out" in out
        assert "batching" in out
        # A second run resumes the enrolled (and partially locked) store —
        # with fewer attempts than accounts, so some accounts see no login
        # and their lockout state must be read back from the (still open)
        # backend, not a warm cache.
        assert main(["flood", uri, "--users", "4", "--attempts", "2"]) == 0
        assert "4 accounts" in capsys.readouterr().out

    def test_flood_respects_persisted_deployment(self, tmp_path, capsys):
        uri = f"sqlite:{tmp_path / 'store.db'}"
        assert main(["store", "create", uri, "--users", "2", "--scheme", "robust"]) == 0
        capsys.readouterr()
        # The flood serves the deployment the backend was created with
        # (robust), regardless of the requested enrollment scheme.
        assert main(["flood", uri, "--users", "2", "--attempts", "40"]) == 0
        assert "logins/s" in capsys.readouterr().out

    def test_flood_bad_uri_fails_cleanly(self, capsys):
        assert main(["flood", "redis:somewhere"]) == 2
        assert "unknown storage backend" in capsys.readouterr().err

    def test_serve_requires_deployment_meta(self, tmp_path, capsys):
        assert main(["serve", f"sqlite:{tmp_path / 'empty.db'}", "--port", "0"]) == 2
        assert "store create" in capsys.readouterr().err

    def test_flood_pipelined_with_connections_alias(self, tmp_path, capsys):
        uri = f"shards:sqlite:{tmp_path / 'p'}{{0..1}}.db"
        code = main(
            ["flood", uri, "--users", "4", "--attempts", "80",
             "--connections", "4", "--pipeline-depth", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4 clients" in out  # --connections overrode the default 16
        assert "pipeline depth 8" in out
        assert "logins/s" in out

    def test_flood_cluster_over_sharded_backend(self, tmp_path, capsys):
        uri = f"shards:sqlite:{tmp_path / 'c'}{{0..1}}.db"
        code = main(
            ["flood", uri, "--cluster", "--users", "4", "--attempts", "60",
             "--connections", "4", "--pipeline-depth", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cluster router" in out
        assert "cluster batching: 2 workers" in out
        assert "logins/s" in out

    def test_flood_cluster_refuses_memory_shards(self, capsys):
        assert main(
            ["flood", "shards:memory:{0..1}", "--cluster", "--users", "2",
             "--attempts", "4"]
        ) == 2
        assert "durable" in capsys.readouterr().err

    def test_cluster_requires_sharded_durable_store(self, tmp_path, capsys):
        assert main(["cluster", f"sqlite:{tmp_path / 'one.db'}"]) == 2
        assert "shards:" in capsys.readouterr().err
        assert main(["cluster", "shards:memory:{0..1}"]) == 2
        assert "durable" in capsys.readouterr().err
        empty = f"shards:sqlite:{tmp_path / 'e'}{{0..1}}.db"
        assert main(["cluster", empty]) == 2
        assert "store create" in capsys.readouterr().err


class TestDemo:
    def test_demo_output(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "centered" in out
        assert "robust" in out
        # The demo's 14-px-off login must split the schemes: centered (r=9)
        # rejects it, robust (r=9, 57-px cells) accepts it.
        centered_line = next(l for l in out.splitlines() if "centered" in l)
        robust_line = next(l for l in out.splitlines() if "robust" in l)
        assert "14px-off login: False" in centered_line
        assert "14px-off login: True" in robust_line


class TestAttackCommand:
    def test_known_identifier_attack_runs_sharded(self, capsys):
        assert main(
            ["attack", "--victims", "6", "--workers", "2", "--tolerance", "9"]
        ) == 0
        out = capsys.readouterr().out
        assert "known-identifier attack" in out
        assert "2 worker(s)" in out
        assert "cracked" in out

    def test_store_attack_accepts_workers_flag(self, tmp_path, capsys):
        uri = f"sqlite:{tmp_path / 'attack.db'}"
        assert main(["store", "create", uri, "--users", "4"]) == 0
        capsys.readouterr()
        assert main(
            ["store", "attack", uri, "--budget", "10", "--workers", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "stolen file" in out
        assert "2 worker(s)" in out
