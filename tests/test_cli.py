import json
import os
import subprocess
import sys

import pytest

from eisterm.cli import run_command


def run_cli(args, capsys):
    code = run_command(args)
    out = capsys.readouterr().out
    return code, out


def payload_of(out):
    return json.loads(out)["payload"]


def test_field_d5(capsys):
    code, out = run_cli(["field", "--D", "5"], capsys)
    assert code == 0
    p = payload_of(out)
    assert p["d_F"] == 5
    assert p["fundamental_unit_sqrtD_coords"] == ["1/2", "1/2"]


def test_zeta_d5(capsys):
    code, out = run_cli(["zeta", "--D", "5", "--neg", "1"], capsys)
    assert code == 0
    p = payload_of(out)
    assert p["value"] == "1/30"
    assert p["siegel_sigma1"] == "1/30"


def test_zeta_partial(capsys):
    code, out = run_cli(["zeta", "--D", "5", "--neg", "1", "--N", "3",
                         "--shift", "1,0"], capsys)
    assert code == 0
    assert payload_of(out)["kind"] == "partial"


def test_bogus_flag_exit2(capsys):
    code = run_command(["--bogus"])
    assert code == 2


def test_unknown_subcommand_exit2(capsys):
    code = run_command(["frobnicate"])
    assert code == 2


def test_classgroup_cache_roundtrip(tmp_path, capsys):
    args = ["classgroup", "--D", "5", "--N", "3", "--cache-dir", str(tmp_path)]
    code1, out1 = run_cli(args, capsys)
    code2, out2 = run_cli(args, capsys)
    assert code1 == code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["payload"] == r2["payload"]
    assert r1["cache_hit"] is False
    assert r2["cache_hit"] is True
    assert r1["payload"]["order"] == 2


def test_cache_corruption_recovers(tmp_path, capsys):
    args = ["classgroup", "--D", "5", "--N", "3", "--cache-dir", str(tmp_path)]
    run_cli(args, capsys)
    entries = [f for f in os.listdir(tmp_path) if f.endswith(".json")]
    assert len(entries) == 1
    path = os.path.join(tmp_path, entries[0])
    with open(path, "w") as fh:
        fh.write('{"broken": tru')
    code, out = run_cli(args, capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["cache_hit"] is False
    assert "recomputing" in rec.get("warning", "")


def test_no_cache_writes_nothing(tmp_path, capsys):
    args = ["classgroup", "--D", "5", "--N", "3", "--cache-dir", str(tmp_path),
            "--no-cache"]
    code, out = run_cli(args, capsys)
    assert code == 0
    assert json.loads(out)["cache_hit"] is False
    assert not os.listdir(tmp_path)


def test_version_bump_invalidates(tmp_path, capsys, monkeypatch):
    args = ["classgroup", "--D", "5", "--N", "3", "--cache-dir", str(tmp_path)]
    run_cli(args, capsys)
    import eisterm.cache as cache_mod

    monkeypatch.setattr(cache_mod, "ARTIFACT_VERSION", "999.0.0")
    # key name changes with the version, so the old entry is never read
    payload, hit, warning = cache_mod.cache_get_or_compute(
        str(tmp_path), "classgroup", 5, 3, lambda: {"fresh": True},
        version="999.0.0")
    assert hit is False and payload == {"fresh": True}


def test_cache_env_var_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EISTERM_CACHE_DIR", str(tmp_path))
    code, out = run_cli(["classgroup", "--D", "5", "--N", "3"], capsys)
    assert code == 0
    assert os.listdir(tmp_path)  # entry written through the env override
    code, out = run_cli(["classgroup", "--D", "5", "--N", "3"], capsys)
    assert json.loads(out)["cache_hit"] is True


def test_fourier_demo_roundtrip(capsys, tmp_path):
    code, out = run_cli(["fourier", "--demo", "2"], capsys)
    assert code == 0
    text = payload_of(out)["transform"]
    from eisterm.schwartz import parse_schwartz, fourier_transform, FractionalSchwartz
    from eisterm.field import construct_field

    fh = parse_schwartz(text)
    Q = construct_field(None)
    f = FractionalSchwartz.from_rational_table(
        Q, 2, {((1, 0), (0, 0)): 1, ((0, 0), (1, 0)): -1})
    assert fh.equals(fourier_transform(f))


def test_fourier_demo_level_one_is_zero(capsys):
    """At C = 1 the demo's two deltas sit at the same index and cancel: the
    transform is the zero table, not that of a single delta."""
    code, out = run_cli(["fourier", "--demo", "1"], capsys)
    assert code == 0
    from eisterm.schwartz import parse_schwartz

    assert not parse_schwartz(payload_of(out)["transform"]).coeffs.any()


def test_fourier_oversized_demo_is_refused(capsys):
    """24^4 indices x 24 roots over Q(sqrt5) exceed the table bound: an error
    record with exit 1, before the table is allocated."""
    code, out = run_cli(["fourier", "--demo", "24", "--demo-D", "5"], capsys)
    assert code == 1
    assert "exceeds" in json.loads(out)["error"]


GOOD_HEADER = "schwartz v1 D=Q s=1:1:0:1 C=2 M=2 pref=1/1\n"
IN_COMMANDS = [["fourier"], ["eisenstein", "--D", "Q"], ["constant-term", "--D", "Q"],
               ["certify", "--D", "Q"]]


@pytest.mark.parametrize("text", [
    "schwartz v1 D=Q C=2 M=2 pref=1/1\n1 0:1\n",  # header without s=
    GOOD_HEADER + "4 0:1\n",  # row index n (n = 4 at C = 2)
    GOOD_HEADER + "1 2:1\n",  # root exponent M
    "",  # empty input
    GOOD_HEADER + "-1 0:1\n",  # negative row index, which numpy would wrap
], ids=["no-scale", "row-index-n", "root-exponent-M", "empty", "row-index-minus-one"])
def test_malformed_table_is_an_error(text, capsys, tmp_path):
    """A malformed serialized table is a JSON error record with exit 1 for
    every command that reads one."""
    path = tmp_path / "table.txt"
    path.write_text(text)
    for command in IN_COMMANDS:
        code = run_command(command + ["--in", str(path)])
        captured = capsys.readouterr()
        assert code == 1, command
        assert "error" in json.loads(captured.out), command
        assert "Traceback" not in captured.err


def test_constant_term_demo(capsys):
    code, out = run_cli(["constant-term", "--D", "Q", "--N", "2", "--m", "0",
                         "--bound", "100000", "--quadrature"], capsys)
    assert code == 0
    p = payload_of(out)
    assert abs(float(p["result"]["value_re"]) - 0.125) < 1e-9
    assert abs(float(p["quadrature"]["re"]) - 0.125) < 1e-6


def test_certify_demo(capsys):
    code, out = run_cli(["certify", "--D", "Q", "--N", "2", "--m", "0",
                         "--bound", "100000", "--prec", "96"], capsys)
    assert code == 0
    p = payload_of(out)
    assert p["ok"] is True
    assert p["rational"] == "1/8"


def test_eisenstein_value_demo(capsys):
    code, out = run_cli(["eisenstein", "--D", "Q", "--N", "2", "--m", "2",
                         "--bound", "25"], capsys)
    assert code == 0
    p = payload_of(out)
    assert "value_re" in p["result"]


def test_constant_term_bound_zero_is_an_error(capsys):
    code, out = run_cli(["constant-term", "--D", "2", "--N", "3", "--bound", "0"], capsys)
    assert code == 1
    assert "bound" in json.loads(out)["error"]


@pytest.mark.parametrize("args", [
    ["constant-term", "--D", "2", "--N", "3"],
    ["certify", "--D", "2", "--N", "3"],
    ["horospherical", "--D", "5", "--N", "3", "--check", "kernel", "--samples", "2"],
    ["eisenstein", "--D", "Q", "--N", "2"],
    ["eisenstein", "--D", "5", "--N", "2", "--m", "1"],
], ids=["constant-term", "certify", "horospherical", "eisenstein-Q", "eisenstein-d5"])
def test_bound_below_one_is_an_error(args, capsys):
    """A bound in (0, 1) truncates to no lattice points: an error record with
    exit 1, not a ZeroDivisionError from the tail term."""
    code = run_command(args + ["--bound", "0.5"])
    captured = capsys.readouterr()
    assert code == 1
    assert "bound" in json.loads(captured.out)["error"]
    assert "Traceback" not in captured.err


def test_prime_bound_zero_is_an_error(capsys):
    """Over Q(sqrt5) the prime bound sets the norm bound of the Lambda_N sums:
    0 is an error record with exit 1, not a Lambda_N from an empty sum."""
    code = run_command(["horospherical", "--D", "5", "--N", "3", "--check", "roundtrip",
                        "--prime-bound", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert "norm bound" in json.loads(captured.out)["error"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("flag,value", [
    ("--t2-norm", "0"), ("--t2-norm", "-2"), ("--t2-sign", "0"), ("--t2-sign", "2"),
])
def test_invalid_torus_is_an_error(flag, value, capsys):
    """||t2||_f must be positive and each sign +1 or -1: a zero norm or sign
    used to divide by zero, and sign 2 silently scaled the value."""
    code = run_command(["constant-term", "--D", "Q", "--N", "2", flag, value])
    captured = capsys.readouterr()
    assert code == 1
    assert "torus" in json.loads(captured.out)["error"]
    assert "Traceback" not in captured.err


def test_constant_term_oversized_slab_is_refused(capsys):
    """eps_+ ~ 4.3e6 over Q(sqrt94) puts ~4.4e7 rows in its unit slab at
    B = 1e4: an error record that names eps_+, before any row is allocated."""
    import time

    t0 = time.perf_counter()
    code, out = run_cli(["constant-term", "--D", "94", "--N", "3"], capsys)
    assert time.perf_counter() - t0 < 5
    assert code == 1
    error = json.loads(out)["error"]
    assert "exceeds" in error and "eps_+" in error


def test_constant_term_d17_level3(capsys):
    """eps_N ~ 1.9e7 over Q(sqrt17) at N = 3 is eps_+^4 with eps_+ ~ 66: the
    slab of eps_+ is small, and its 4-fold gives the slab of eps_N."""
    code, out = run_cli(["constant-term", "--D", "17", "--N", "3"], capsys)
    assert code == 0
    result = payload_of(out)["result"]
    assert result["term_count"] == 162_720
    assert abs(float(result["value_re"]) - 40 / 27) < 1e-6


@pytest.mark.parametrize("m", ["0", "1"])
def test_eisenstein_oversized_box_is_refused(capsys, m):
    """(2*40+1)^4 = 43M lattice points at xi = 2: an error record, quickly.
    At m = 0 the convergence check refuses first; at m = 1 the box guard."""
    import time

    t0 = time.perf_counter()
    code, out = run_cli(["eisenstein", "--D", "5", "--N", "2", "--m", m, "--bound", "40"],
                        capsys)
    assert time.perf_counter() - t0 < 5
    assert code == 1
    assert json.loads(out)["error"]


def test_horospherical_kernel_demo(capsys):
    code, out = run_cli(["horospherical", "--D", "Q", "--N", "3",
                         "--check", "kernel", "--samples", "4"], capsys)
    assert code == 0
    p = payload_of(out)
    assert float(p["max_abs"]) < 1e-8


def test_determinism_payload_bytes(capsys):
    args = ["zeta", "--D", "5", "--neg", "1"]
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    p1 = json.dumps(json.loads(out1)["payload"], sort_keys=True)
    p2 = json.dumps(json.loads(out2)["payload"], sort_keys=True)
    assert p1 == p2


def test_formats(capsys):
    code, out = run_cli(["--format", "csv", "zeta", "--D", "5", "--neg", "1"], capsys)
    assert code == 0 and "payload.value,1/30" in out
    code, out = run_cli(["--format", "text", "zeta", "--D", "5", "--neg", "1"], capsys)
    assert code == 0 and "payload" in out


def test_entrypoint_subprocess():
    """The installed console script behaves like run_command."""
    env = dict(os.environ)
    proc = subprocess.run(
        [sys.executable, "-m", "eisterm.cli", "zeta", "--D", "5", "--neg", "1"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["value"] == "1/30"
