"""Runner selection: REPRO_RUNNER / REPRO_WORKERS and the CLI flags."""

import pytest

from repro.cli import main
from repro.experiments.common import make_runner
from repro.mapreduce import LocalJobRunner, ParallelJobRunner


class TestMakeRunner:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUNNER", raising=False)
        assert isinstance(make_runner(), LocalJobRunner)

    def test_serial_aliases(self, monkeypatch):
        for name in ["serial", "local", "SERIAL"]:
            monkeypatch.setenv("REPRO_RUNNER", name)
            assert isinstance(make_runner(), LocalJobRunner)

    def test_parallel(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER", "parallel")
        monkeypatch.setenv("REPRO_WORKERS", "3")
        runner = make_runner()
        assert isinstance(runner, ParallelJobRunner)
        assert runner.max_workers == 3
        runner.close()

    def test_bad_runner_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER", "quantum")
        with pytest.raises(ValueError, match="REPRO_RUNNER"):
            make_runner()

    def test_bad_worker_count_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER", "parallel")
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            make_runner()


class TestCliFlags:
    def test_runner_flag_sets_env(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_RUNNER", raising=False)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setenv("REPRO_SCALE", "0.12")
        import os

        assert main(["run", "E1", "--runner", "parallel", "--workers", "2"]) == 0
        assert os.environ["REPRO_RUNNER"] == "parallel"
        assert os.environ["REPRO_WORKERS"] == "2"
        assert "E1" in capsys.readouterr().out

    def test_bad_workers_flag(self, monkeypatch):
        with pytest.raises(SystemExit):
            main(["run", "E1", "--workers", "0"])


class TestParallelOnlyKnobs:
    """Parallel-only knobs are rejected under the serial runner, from
    the environment exactly as from the CLI."""

    @pytest.mark.parametrize("var,value", [
        ("REPRO_TASK_TIMEOUT", "5"),
        ("REPRO_RECOVERY_DIR", "/nonexistent/manifests"),
        ("REPRO_WORKER_RLIMIT_BYTES", "1073741824"),
    ])
    def test_serial_rejects_parallel_only_env(self, monkeypatch, var, value):
        from repro.knobs import ConfigError

        monkeypatch.setenv("REPRO_RUNNER", "serial")
        monkeypatch.setenv(var, value)
        with pytest.raises(ConfigError, match=var):
            make_runner()

    def test_resume_requires_recovery_dir(self, monkeypatch):
        from repro.knobs import ConfigError

        monkeypatch.setenv("REPRO_RUNNER", "parallel")
        monkeypatch.delenv("REPRO_RECOVERY_DIR", raising=False)
        monkeypatch.setenv("REPRO_RESUME", "1")
        with pytest.raises(ConfigError, match="REPRO_RECOVERY_DIR"):
            make_runner()

    def test_parallel_accepts_them(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RUNNER", "parallel")
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "5")
        monkeypatch.setenv("REPRO_RECOVERY_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_RESUME", "1")
        with make_runner() as runner:
            assert runner.recovery_dir == str(tmp_path)
            assert runner.resume is True
            assert runner._scheduler_kwargs["task_timeout"] == 5.0

    def test_cli_flag_error_leaves_env_untouched(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_RUNNER", raising=False)
        monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)
        with pytest.raises(SystemExit):
            main(["run", "F7", "--task-timeout", "5"])
        assert "REPRO_TASK_TIMEOUT" not in os.environ
