"""The sim-time purity lint: the tree is clean, and the lint has teeth."""

from __future__ import annotations

from repro.tools.simtime_lint import lint_file, lint_tree, main


def lint_source(tmp_path, source, rel_path="ssd/example.py"):
    path = tmp_path / "example.py"
    path.write_text(source)
    return lint_file(path, rel_path)


def test_repro_tree_is_clean():
    assert lint_tree() == []


def test_main_exit_code_clean(capsys):
    assert main([]) == 0
    assert "clean" in capsys.readouterr().out


def test_flags_time_time(tmp_path):
    violations = lint_source(
        tmp_path, "import time\nnow = time.time()\n"
    )
    assert len(violations) == 1
    assert "time.time" in str(violations[0])
    assert ":2:" in str(violations[0])


def test_flags_from_import(tmp_path):
    violations = lint_source(tmp_path, "from time import monotonic\n")
    assert len(violations) == 1
    assert "time.monotonic" in str(violations[0])


def test_flags_datetime_now(tmp_path):
    violations = lint_source(
        tmp_path,
        "import datetime\nstamp = datetime.datetime.now()\n",
    )
    assert len(violations) == 1
    assert "datetime.now" in str(violations[0])


def test_flags_sleep(tmp_path):
    assert lint_source(tmp_path, "import time\ntime.sleep(1)\n")


def test_perf_counter_scoped_to_harness(tmp_path):
    source = "import time\nstart = time.perf_counter()\n"
    assert lint_source(tmp_path, source, "ssd/device.py")
    assert lint_source(tmp_path, source, "fleet/router.py")
    assert lint_source(tmp_path, source, "bench/fleet.py") == []
    assert lint_source(tmp_path, source, "tools/cachebench.py") == []


def test_simulated_time_attributes_untouched(tmp_path):
    # now_ns plumbing, clock_ns attributes, and local variables named
    # "time" must not trip the module-name heuristic.
    source = (
        "def f(device, now_ns):\n"
        "    device.clock_ns = now_ns\n"
        "    return device.busy_until\n"
    )
    assert lint_source(tmp_path, source) == []


def test_main_reports_violations(tmp_path, capsys):
    bad = tmp_path / "sub"
    bad.mkdir()
    (bad / "clocky.py").write_text("import time\nt = time.time()\n")
    assert main([str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "sub/clocky.py:2" in err
