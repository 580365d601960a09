import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import momentmoduli
from momentmoduli.cli import main
from momentmoduli.constructions import make_fn
from momentmoduli.spaces import INF


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_constants_csv(capsys, tmp_path):
    path = tmp_path / "grid.csv"
    code, _, _ = run_cli(["constants", "--pmin", "1", "--pmax", "4",
                          "--step", "0.5", "--out", str(path)], capsys)
    assert code == 0
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0].keys() == {"p", "q", "c", "C", "C_opt", "theta_max",
                              "snowflake", "Q_star", "bm_bound",
                              "general_bound"}
    assert len(rows) == 7 * 15  # 7 p values x 15 q values
    # 17-significant-digit round trip
    for row in rows[:10]:
        assert float(row["c"]) == float(row["c"])


def test_verify_fn_ok(capsys):
    code, out, _ = run_cli(["verify", "fn", "--n", "5", "--q", "inf",
                            "--p", "1"], capsys)
    assert code == 0
    assert "predicted" in out and "2.6" in out and "OK" in out


def test_verify_missing_flag_exits_2(capsys):
    code, _, err = run_cli(["verify", "fn", "--p", "1"], capsys)
    assert code == 2
    assert "fn needs" in err


def test_verify_unknown_construction_exits_2(capsys):
    code, _, err = run_cli(["verify", "wat", "--p", "1"], capsys)
    assert code == 2


def test_ratio_roundtrip(capsys, tmp_path):
    cfg = make_fn(2, INF, 2.0).config
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_json()))
    csv_path = tmp_path / "reports.csv"
    code, out, _ = run_cli(["ratio", "--config", str(path),
                            "--csv", str(csv_path)], capsys)
    assert code == 0
    payload = json.loads(out)
    names = [r["name"] for r in payload]
    assert "Barycenter" in names and "Roundness" in names
    with csv_path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0].keys() == {"name", "p", "q", "space", "value", "bound",
                              "slack"}


def test_ratio_of_tiny_weighted_atoms_certifies_its_closed_form(capsys, tmp_path):
    # the moments are about 1e-220, normal floats, but the solver works with
    # the atoms times 2^530, whose square left the float range in the
    # closed form's rounding allowance
    law = {"probs": [0.5, 0.5], "weights": [1e100]}
    config = {"space": {"kind": "weighted_lq", "q": 2},
              "X": {**law, "atoms": [[[0, 0]], [[1e-160, 0]]]},
              "Y": {**law, "atoms": [[[3e-160, 0]]], "probs": [1.0]}, "p": 2}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(["ratio", "--config", str(path)], capsys)
    assert (code, err) == (0, "")
    info = next(r for r in json.loads(out) if r["name"] == "Barycenter")["solver_info"]
    assert info["stop"] == "closed_form"
    assert math.isfinite(info["lower"]) and info["lower"] <= info["value"]


def test_ratio_malformed_json_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"space": {"kind": "real_line"}, "X": {"atoms": [0]}}')
    code, _, err = run_cli(["ratio", "--config", str(path)], capsys)
    assert code == 2
    assert "'Y'" in err  # names the offending field


def test_check_cosine(capsys, tmp_path):
    out_path = tmp_path / "violations.csv"
    code, _, err = run_cli(["check", "cosine", "--grid", "5",
                            "--out", str(out_path)], capsys)
    assert code == 0
    assert "0 violation(s)" in err
    header = out_path.read_text().strip().splitlines()
    assert len(header) == 1  # only the header row: no violations


def test_check_beta(capsys, tmp_path):
    code, _, err = run_cli(["check", "beta", "--grid", "50",
                            "--out", str(tmp_path / "b.csv")], capsys)
    assert code == 0


def test_search_deterministic_output(capsys, tmp_path):
    args = ["search", "--space", "realline", "--objective", "roundness",
            "--p", "1", "--budget", "300", "--restarts", "1",
            "--seed", "42"]
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    assert run_cli(args + ["--out", str(p1)], capsys)[0] == 0
    assert run_cli(args + ["--out", str(p2)], capsys)[0] == 0
    assert p1.read_text() == p2.read_text()
    payload = json.loads(p1.read_text())
    assert payload["best_ratio"] <= 2.0 + 1e-9


def test_search_input_error(capsys):
    code, _, err = run_cli(["search", "--space", "lq", "--objective",
                            "roundness", "--p", "1", "--seed", "1"], capsys)
    assert code == 2
    assert "--q" in err


def test_sweep_csv_and_exit_code(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(["sweep", "--construction", "bipartite",
                          "--n", "1,2,4", "--p", "1,2",
                          "--out", str(out_path)], capsys)
    assert code == 0
    with out_path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert all(r["status"] == "ok" for r in rows)
    # predicted/computed agree row-wise
    for r in rows:
        assert float(r["computed"]) == pytest.approx(
            float(r["predicted"]), abs=1e-9)


def test_check_commands_smoke(capsys, tmp_path):
    for args in (["check", "alpha", "--grid", "30"],
                 ["check", "subadditivity", "--seeds", "30"],
                 ["check", "gaussian", "--seeds", "20"],
                 ["check", "hilbert", "--seeds", "20"],
                 ["check", "laplace", "--seeds", "2"]):
        code, _, err = run_cli(args + ["--out", str(tmp_path / "v.csv")], capsys)
        assert code == 0, (args, err)


def test_check_tolerance_breach_exits_1(capsys, tmp_path):
    # an unattainable tolerance must flip the exit code to 1
    code, _, err = run_cli(["check", "cosine", "--grid", "3",
                            "--tolerance", "1e-18",
                            "--out", str(tmp_path / "v.csv")], capsys)
    assert code == 1
    assert "violation" in err


def test_ratio_on_graph_config(capsys, tmp_path):
    from momentmoduli.constructions import make_bipartite
    cfg = make_bipartite(3, 2.0).config
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(cfg.to_json()))
    code, out, _ = run_cli(["ratio", "--config", str(path)], capsys)
    assert code == 0
    names = [r["name"] for r in json.loads(out)]
    assert "MetricBarycenter" in names and "Roundness" in names
    assert "Barycenter" not in names  # nonlinear space: no vector barycenter


def test_module_invocation_subprocess(tmp_path):
    import subprocess
    import sys
    r = subprocess.run(
        [sys.executable, "-m", "momentmoduli.cli", "verify", "two-point",
         "--p", "2"],
        capture_output=True, text=True)
    assert r.returncode == 0
    assert "OK" in r.stdout


def test_ratio_malformed_atom_exits_2_without_traceback(capsys, tmp_path):
    path = tmp_path / "bad_atom.json"
    path.write_text(json.dumps({
        "space": {"kind": "schatten", "q": 1.0},
        "X": {"atoms": [[1, 0]], "probs": [1.0]},
        "Y": {"atoms": [[[[0, 0]]]], "probs": [1.0]},
        "p": 1.0}))
    code, _, err = run_cli(["ratio", "--config", str(path)], capsys)
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


_LQ_CONFIG = {
    "space": {"kind": "weighted_lq", "q": 2.0},
    "X": {"atoms": [[[1, 0]]], "probs": [1.0]},
    "Y": {"atoms": [[[0, 1]]], "probs": [1.0]},
    "p": 1.0,
}


@pytest.mark.parametrize("field,change", [
    ("q", {"space": {"kind": "schatten", "q": [2]}}),
    ("q", {"space": {"kind": "weighted_lq", "q": None}}),
    ("n", {"space": {"kind": "parallelogram_s1", "n": {"n": 1}}}),
    ("n", {"space": {"kind": "bipartite_graph", "n": 2.5}}),
    ("alpha", {"space": {"kind": "snowflake", "alpha": [0.5],
                         "base": {"kind": "weighted_lq", "q": 2.0}}}),
    ("p", {"p": [1]}),
    ("p", {"p": True}),
    ("zero_sum", {"zero_sum": "false"}),
], ids=["q-list", "q-null", "n-object", "n-fraction", "alpha-list", "p-list",
        "p-bool", "zero_sum-string"])
def test_ratio_malformed_scalar_field_exits_2_naming_it(capsys, tmp_path, field, change):
    path = tmp_path / "bad_field.json"
    path.write_text(json.dumps({**_LQ_CONFIG, **change}))
    code, _, err = run_cli(["ratio", "--config", str(path)], capsys)
    assert code == 2
    assert err.startswith("error:")
    assert repr(field) in err
    assert "Traceback" not in err


def test_ratio_mismatched_atom_dimensions_exit_2(capsys, tmp_path):
    path = tmp_path / "bad_dims.json"
    path.write_text(json.dumps({
        "space": {"kind": "weighted_lq", "q": 2.0},
        "X": {"atoms": [[[1, 0]], [[1, 0], [0, 1]]], "probs": [0.5, 0.5]},
        "Y": {"atoms": [[[0, 1]]], "probs": [1.0]},
        "p": 1.0}))
    code, _, err = run_cli(["ratio", "--config", str(path)], capsys)
    assert code == 2
    assert "share one dimension" in err


def test_ratio_point_of_the_wrong_space_exits_2(capsys, tmp_path):
    path = tmp_path / "bad_vertex.json"
    path.write_text(json.dumps({
        "space": {"kind": "bipartite_graph", "n": 2},
        "X": {"atoms": [["L", 5]], "probs": [1.0]},
        "Y": {"atoms": [["R", 0]], "probs": [1.0]},
        "p": 1.0}))
    code, _, err = run_cli(["ratio", "--config", str(path)], capsys)
    assert code == 2
    assert "out of range" in err


@pytest.mark.parametrize("args,flag", [
    (["constants", "--step", "0"], "--step"),
    (["constants", "--pstep", "0"], "--pstep"),
    (["constants", "--qstep", "0"], "--qstep"),
    (["constants", "--step", "-0.5"], "--step"),
    (["sweep", "--construction", "bipartite", "--n", "inf", "--p", "1"], "--n"),
    (["sweep", "--construction", "bipartite", "--n", "1.5", "--p", "1"], "--n"),
    (["check", "alpha", "--grid", "0"], "--grid"),
    (["check", "subadditivity", "--seeds", "0"], "--seeds"),
    (["check", "cosine", "--tolerance", "-1"], "--tolerance"),
], ids=["step-0", "pstep-0", "qstep-0", "step-negative", "n-inf", "n-fraction",
        "grid-0", "seeds-0", "tolerance-negative"])
def test_invalid_flag_value_exits_2_naming_the_flag(capsys, args, flag):
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert err.startswith("error:")
    assert flag in err
    assert "Traceback" not in err


_SEARCH = ["search", "--objective", "roundness", "--budget", "5", "--seed", "1"]


@pytest.mark.parametrize("args,message", [
    (_SEARCH + ["--space", "lq", "--q", "2", "--p", "2", "--dim", "0"], "dim"),
    (_SEARCH + ["--space", "realline", "--p", "inf"], "finite"),
    (["verify", "fn", "--n", "2", "--q", "inf", "--p", "inf"], "finite"),
    (["sweep", "--construction", "two-point", "--p", "2,inf"], "finite"),
], ids=["search-dim-0", "search-p-inf", "verify-p-inf", "sweep-p-inf"])
def test_zero_dimension_and_infinite_exponent_exit_2(capsys, args, message):
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert err.startswith("error:")
    assert message in err
    assert "Traceback" not in err


def test_ratio_infinite_exponent_exits_2(capsys, tmp_path):
    path = tmp_path / "p_inf.json"
    path.write_text(json.dumps({**_LQ_CONFIG, "p": "inf"}))
    code, _, err = run_cli(["ratio", "--config", str(path)], capsys)
    assert code == 2
    assert "finite" in err


def test_check_tolerance_zero_is_honoured(capsys):
    code, _, err = run_cli(["check", "cosine", "--grid", "4"], capsys)
    assert (code, err.strip()) == (0, "check cosine: 0 violation(s)")
    # the quadrature is accurate to about 1e-9, not exact
    code, _, err = run_cli(["check", "cosine", "--grid", "4", "--tolerance", "0"], capsys)
    assert (code, err.strip()) == (1, "check cosine: 4 violation(s)")


_GRAPH_CONFIG = {
    "space": {"kind": "bipartite_graph", "n": 2},
    "X": {"atoms": [["L", 0]], "probs": [1.0]},
    "Y": {"atoms": [["R", 1]], "probs": [1.0]},
    "p": 1.0,
}


_OVERFLOW_CONFIG = {
    "space": {"kind": "weighted_lq", "q": 1.0},
    "X": {"atoms": [[[0, 0], [0, 0]]], "probs": [1.0]},
    "Y": {"atoms": [[[0, 0], [1e300, 0]]], "probs": [1.0]},
    "p": 1.5,
}


@pytest.mark.parametrize("config,message", [
    # the moments overflow for real here
    ({**_LQ_CONFIG, "p": 1e6}, "floating-point range"),
    ({**_LQ_CONFIG, "X": {"atoms": [[[1, 0]]], "probs": ["nan"]}}, "nonnegative"),
    ({**_LQ_CONFIG, "X": {"atoms": [[[1, 0]]], "probs": [10 ** 400]}}, "probabilities"),
    ({**_LQ_CONFIG, "X": {"atoms": [[[1, 0]]], "probs": [1.0], "weights": {}}}, "'weights'"),
    ({**_GRAPH_CONFIG, "X": {"atoms": [["L", 0.5]], "probs": [1.0]}}, "integer index"),
    ({**_GRAPH_CONFIG, "X": {"atoms": [["L", 1e400]], "probs": [1.0]}}, "integer index"),
    ({"space": {"kind": "real_line"}, "X": {"atoms": [10 ** 400], "probs": [1.0]},
      "Y": {"atoms": [0.0], "probs": [1.0]}, "p": 1.0}, "real_line atoms"),
    ({**_GRAPH_CONFIG, "X": {"atoms": [["L", 10 ** 30]], "probs": [1.0]}}, "out of range"),
    ({**_GRAPH_CONFIG, "X": {"atoms": [["Q", 0]], "probs": [1.0]}}, "side"),
    ({"space": {"kind": "schatten", "q": 2.0},
      "X": {"atoms": [[[[1, 0], [0, 0]]]], "probs": [1.0]},
      "Y": {"atoms": [[[[0, 0], [1, 0]]]], "probs": [1.0]}, "p": 1.0}, "square"),
    ({**_LQ_CONFIG, "X": {"atoms": [], "probs": []}}, "at least one atom"),
    # the moments overflow (a distance of 1e300 to the power 1.5), the ratios
    # do not
    (_OVERFLOW_CONFIG, "floating-point range"),
], ids=["p-overflows-the-bounds", "prob-nan", "prob-huge-int", "weights-object",
        "vertex-index-fraction", "vertex-index-inf", "real-atom-huge-int",
        "vertex-index-huge-int", "vertex-side", "schatten-non-square", "no-atoms",
        "moments-overflow"])
def test_ratio_out_of_range_or_malformed_values_exit_2(capsys, tmp_path, config, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    code, _, err = run_cli(["ratio", "--config", str(path)], capsys)
    assert code == 2
    assert err.startswith("error:")
    assert message in err
    assert "Traceback" not in err


def test_verify_with_an_exponent_beyond_the_float_range_exits_2(capsys):
    code, _, err = run_cli(["verify", "bipartite", "--n", "2", "--p", "5000"], capsys)
    assert code == 2
    assert "floating-point range" in err


# float power raises OverflowError(errno, text); the text alone is printed
@pytest.mark.parametrize("args", [
    ["verify", "two-point", "--p", "1e308"],
    ["verify", "fn", "--n", "2", "--q", "1e308", "--p", "1"],
], ids=["two-point", "fn"])
def test_float_power_overflow_prints_its_text_alone(capsys, args):
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, "")
    assert err == "error: a value leaves the floating-point range: Numerical result out of range\n"


# a value list that is given but holds no value runs nothing, so it is refused
@pytest.mark.parametrize("args,flag", [
    (["--construction", "fn", "--p", ",,", "--n", "2", "--q", "inf"], "p"),
    (["--construction", "fn", "--p", "", "--n", "2", "--q", "inf"], "p"),
    (["--construction", "fn", "--p", "1", "--n", ",", "--q", "inf"], "n"),
    (["--construction", "fn", "--p", "1", "--n", "2", "--q", " , "], "q"),
    (["--construction", "two-point", "--p", "2", "--n", ","], "n"),
    (["--construction", "two-point", "--p", "2", "--n", ""], "n"),
    (["--construction", "two-point", "--p", "2", "--q", ","], "q"),
    (["--construction", "eps-atom", "--p", "2", "--eps", ","], "eps"),
], ids=["p-commas", "p-empty", "fn-n", "fn-q", "two-point-n", "two-point-n-empty",
        "two-point-q", "eps-atom-eps"])
def test_sweep_with_an_empty_value_list_exits_2(capsys, args, flag):
    code, out, err = run_cli(["sweep", *args], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: --{flag} needs at least one value\n"


# the two sizes are refused by numpy before anything is allocated (EiB, PiB)
@pytest.mark.parametrize("args,message", [
    (["verify", "jensen-eps", "--eps", "0.5", "--p", "1e6"],
     "error: a value leaves the floating-point range: float division by zero\n"),
    (["constants", "--pmin", "1", "--pmax", "1e9", "--step", "1e-9"],
     "error: the input is too large: "),
    (["verify", "fn", "--n", "100000000", "--q", "inf", "--p", "1"],
     "error: the input is too large: "),
], ids=["underflow-to-zero", "constants-grid", "fn-rows"])
def test_value_out_of_range_or_beyond_memory_exits_2_in_one_line(args, message):
    env = {**os.environ, "PYTHONPATH": str(Path(momentmoduli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "momentmoduli.cli", *args],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(message)
    assert proc.stderr.count("\n") == 1


_REAL_CONFIG = {
    "space": {"kind": "real_line"},
    "X": {"atoms": [1.0, 0.0], "probs": [0.5, 0.5]},
    "Y": {"atoms": [2.0], "probs": [1.0]},
    "p": 1.0,
}


@pytest.mark.parametrize("config,field", [
    ({**_REAL_CONFIG, "X": {"atoms": [1.0, 0.0], "probs": [True, False]}}, "probs"),
    ({**_REAL_CONFIG, "X": {"atoms": [True, 0.0], "probs": [0.5, 0.5]}}, "atoms"),
    ({**_LQ_CONFIG, "X": {"atoms": [[[True, 0]]], "probs": [1.0]}}, "atoms"),
    ({**_LQ_CONFIG, "X": {"atoms": [[[1, 0]]], "probs": [1.0], "weights": [True]}},
     "weights"),
    ({**_GRAPH_CONFIG, "X": {"atoms": [["L", True]], "probs": [1.0]}}, "atoms"),
], ids=["probs", "real-atom", "re-im-pair", "weights", "vertex-index"])
def test_ratio_boolean_where_a_number_is_read_exits_2_naming_the_field(
        capsys, tmp_path, config, field):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(config))
    code, _, err = run_cli(["ratio", "--config", str(path)], capsys)
    assert code == 2
    assert err.startswith("error:")
    assert repr(field) in err
    assert "Traceback" not in err


_SCHATTEN_CONFIG = {
    "space": {"kind": "schatten", "q": 2.0},
    "X": {"atoms": [[[[1, 0]]]], "probs": [1.0]},
    "Y": {"atoms": [[[[0, 1]]]], "probs": [1.0]},
    "p": 1.0,
}


@pytest.mark.parametrize("config,field", [
    ({**_REAL_CONFIG, "X": {"atoms": ["1.5", 0.0], "probs": [0.5, 0.5]}}, "atoms"),
    ({**_LQ_CONFIG, "X": {"atoms": [[["1", 0]]], "probs": [1.0]}}, "atoms"),
    ({**_SCHATTEN_CONFIG, "X": {"atoms": [[[["1", 0]]]], "probs": [1.0]}}, "atoms"),
    ({**_GRAPH_CONFIG, "X": {"atoms": [["R", "1"]], "probs": [1.0]}}, "atoms"),
    ({**_GRAPH_CONFIG, "X": {"atoms": ["L1"], "probs": [1.0]}}, "atoms"),
    ({**_LQ_CONFIG, "X": {"atoms": [[[1, 0]]], "probs": [1.0], "weights": ["1"]}},
     "weights"),
    ({**_REAL_CONFIG, "X": {"atoms": [1.0, 0.0], "probs": [0.5, 0.5], "weights": [1.0]}},
     "weights"),
    ({**_SCHATTEN_CONFIG, "X": {"atoms": [[[[1, 0]]]], "probs": [1.0], "weights": [1.0]}},
     "weights"),
    ({**_GRAPH_CONFIG, "X": {"atoms": [["L", 0]], "probs": [1.0], "weights": [1.0]}},
     "weights"),
], ids=["real-atom-string", "re-im-string", "schatten-entry-string", "vertex-index-string",
        "vertex-string", "weights-string", "real-weights", "schatten-weights",
        "graph-weights"])
def test_ratio_string_atom_or_weights_without_vectors_exits_2_naming_the_field(
        capsys, tmp_path, config, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(["ratio", "--config", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    assert repr(field) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("config,far", [
    ({"space": {"kind": "real_line"},
      "X": {"atoms": [0.0], "probs": [1.0]},
      "Y": {"atoms": [1.0, 2.0], "probs": [0.5, 0.5]}, "p": 1.5}, 1e300),
    ({"space": {"kind": "weighted_lq", "q": 2.0},
      "X": {"atoms": [[[0, 0], [0, 0]]], "probs": [1.0]},
      "Y": {"atoms": [[[1, 0], [0, 1]], [[2, 0], [0, 0]]], "probs": [0.5, 0.5]}, "p": 1.5},
     [[1e300, 0], [0, 0]]),
], ids=["real_line", "weighted_lq"])
def test_ratio_of_a_law_with_a_zero_mass_atom_is_that_of_its_support(
        capsys, tmp_path, config, far):
    # the atom's powers overflow, and would poison the moments with 0 * inf
    padded = {**config, "X": {"atoms": config["X"]["atoms"] + [far], "probs": [1.0, 0.0]}}
    outs = []
    for name, obj in (("support", config), ("padded", padded)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(["ratio", "--config", str(path)], capsys)
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]


def test_ratio_at_extreme_magnitudes_writes_nothing_to_stderr(tmp_path):
    # the kernels recompute the pairs whose powers over- or underflow; the
    # first pass must not leak numpy's warnings into the output
    env = {**os.environ, "PYTHONPATH": str(Path(momentmoduli.__file__).parents[1])}

    def run(args):
        return subprocess.run([sys.executable, "-m", "momentmoduli.cli", *args],
                              capture_output=True, text=True, env=env)

    def ratio(config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return run(["ratio", "--config", str(path)])

    proc = ratio({"space": {"kind": "weighted_lq", "q": 3},
                  "X": {"atoms": [[[1e200, 0], [0, 0]], [[0, 0], [1e200, 0]]],
                        "probs": [0.5, 0.5]},
                  "Y": {"atoms": [[[-1e200, 0], [2e200, 0]]], "probs": [1.0]},
                  "p": 1})
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "Roundness" in proc.stdout
    # a power that overflows for real is reported once, as the error alone
    proc = ratio(_OVERFLOW_CONFIG)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: a value leaves the floating-point range: Roundness "
                           "moments are not finite (numerator=0.0, denominator=inf)\n")
    proc = run(["search", "--space", "realline", "--objective", "roundness",
                "--p", "1e6", "--budget", "10", "--seed", "1"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: a value leaves the floating-point range: "
                           "no start of the search has a finite, nondegenerate ratio\n")


@pytest.mark.parametrize("suite,flag,value", [
    ("alpha", "seeds", "3"),
    ("beta", "seeds", "3"),
    ("beta", "tolerance", "0"),
    ("subadditivity", "grid", "3"),
    ("subadditivity", "tolerance", "0"),
    ("laplace", "grid", "3"),
    ("gaussian", "grid", "3"),
    ("gaussian", "tolerance", "0"),
    ("cosine", "seeds", "3"),
    ("hilbert", "grid", "3"),
    ("hilbert", "tolerance", "0"),
])
def test_check_flag_the_suite_does_not_take_exits_2(capsys, suite, flag, value):
    code, out, err = run_cli(["check", suite, f"--{flag}", value], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: check {suite} takes no --{flag}\n"


@pytest.mark.parametrize("args,message", [
    (["verify", "two-point", "--p", "2", "--n", "5"], "two-point takes no --n"),
    (["verify", "bipartite", "--n", "3", "--p", "2", "--q", "7"], "bipartite takes no --q"),
    (["verify", "eps-atom", "--p", "2", "--eps", "0.1", "--q", "2"], "eps-atom takes no --q"),
    (["sweep", "--construction", "two-point", "--p", "2", "--eps", "0.5"],
     "two-point takes no --eps"),
    (["sweep", "--construction", "fn", "--n", "2", "--q", "2", "--p", "1", "--eps", "0.5"],
     "fn takes no --eps"),
    (_SEARCH + ["--space", "realline", "--q", "3", "--dim", "4", "--p", "1"],
     "--space realline takes no --q"),
    (_SEARCH + ["--space", "realline", "--dim", "4", "--p", "1"],
     "--space realline takes no --dim"),
    (_SEARCH + ["--space", "s1par", "--n", "2", "--dim", "9", "--p", "1"],
     "--space s1par takes no --dim"),
    (_SEARCH + ["--space", "s1par", "--n", "2", "--q", "2", "--p", "1"],
     "--space s1par takes no --q"),
    (_SEARCH + ["--space", "lq", "--q", "2", "--n", "3", "--p", "1"],
     "--space lq takes no --n"),
    # a missing flag is reported first, with its message as it was
    (["verify", "fn", "--p", "1", "--eps", "2"], "fn needs --n and --q"),
    (_SEARCH + ["--space", "lq", "--n", "3", "--p", "1"], "--space lq needs --q"),
    (_SEARCH + ["--space", "s1par", "--q", "2", "--p", "1"], "--space s1par needs --n"),
], ids=["verify-two-point-n", "verify-bipartite-q", "verify-eps-atom-q",
        "sweep-two-point-eps", "sweep-fn-eps", "search-realline-q", "search-realline-dim",
        "search-s1par-dim", "search-s1par-q", "search-lq-n",
        "verify-fn-missing-first", "search-lq-missing-first", "search-s1par-missing-first"])
def test_flag_the_target_does_not_take_exits_2(capsys, args, message):
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


# every start's moments overflow at this exponent
@pytest.mark.parametrize("space", [["realline"], ["lq", "--q", "2"]], ids=["realline", "lq"])
def test_search_whose_moments_all_overflow_exits_2(capsys, space):
    code, out, err = run_cli(_SEARCH + ["--space", *space, "--p", "1e6"], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: a value leaves the floating-point range: "
                   "no start of the search has a finite, nondegenerate ratio\n")


# ----------------------------------------------------------------------------
# The README's CLI commands, pinned: the sha256 of each one's standard output
# and of the file it writes.  Every value is printed with 17 significant
# digits, so any output that moves by a bit fails here.  The search runs at
# a smaller budget than the README's.

README_CONFIG = {
    "space": {"kind": "weighted_lq", "q": 2.0},
    "X": {"atoms": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
          "probs": ["0.5", "0.5"]},
    "Y": {"atoms": [[[0.0, 1.0], [0.0, 0.0]]], "probs": [1.0]},
    "p": 2.0,
}

README_COMMANDS = {
    "constants": ["constants", "--pmin", "1", "--pmax", "4", "--step", "0.5",
                  "--out", "{out}"],
    "ratio": ["ratio", "--config", "{config}", "--csv", "{out}"],
    "verify-fn": ["verify", "fn", "--n", "5", "--q", "inf", "--p", "1"],
    "verify-schatten-parallelogram": ["verify", "schatten-parallelogram",
                                      "--n", "64", "--p", "1"],
    "check-cosine": ["check", "cosine", "--grid", "50"],
    "check-subadditivity": ["check", "subadditivity", "--seeds", "1000"],
    "search": ["search", "--space", "lq", "--q", "2", "--objective", "roundness",
               "--p", "2", "--budget", "2000", "--restarts", "2", "--seed", "42",
               "--out", "{out}"],
    "sweep": ["sweep", "--construction", "bipartite", "--n", "1,2,4,100",
              "--p", "1,2,3", "--out", "{out}"],
}

# name -> (sha256 of standard output, sha256 of the written file or None)
README_SHA256 = {
    "check-cosine": (
        "69a6acee400ac8a62fcd0d9cacc24a5a02c9b3d1a289cf45893556f4619a9762",
        None),
    "check-subadditivity": (
        "69a6acee400ac8a62fcd0d9cacc24a5a02c9b3d1a289cf45893556f4619a9762",
        None),
    "constants": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e013c8460ced6b505a9d844c7b99c4fbe90da3b1cecd101d6e18965379a9d37c"),
    "ratio": (
        "db0add218243bc0b2a57cbfd64827b97f89961f30ea6671ad33e9ec8eafcd9c3",
        "1a5dd16e1615810149906d3b2732efe362118504d97447d59566929fce70732c"),
    "search": (
        "d5a7cf5a2317eb1752eb5fe90e8735bf59bfc189c0d6eba60f8b7a20acf8dab5",
        "43856bfc79505e8f3bb7478221ceb3731ecfe68d43393b0bdba6f3bae57a7044"),
    "sweep": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "c4dd4d6c24055629a9a660cbcc781e452a0168eae79612d2de044cd4f4f351a1"),
    "verify-fn": (
        "dad5ce26486e4fdd2f1db830c5ea9176416dc4ec83c4a046993959aa4c8cc6b6",
        None),
    "verify-schatten-parallelogram": (
        "866f545c0af2c8505e597de26d357386f3669d03dcc5908005a3b2d7e79284a8",
        None),
}


def readme_output(name, tmp_path):
    """Exit code of README command ``name`` and the sha256 of its standard
    output and of the file it writes (None if it writes none)."""
    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_text(json.dumps(README_CONFIG))
    args = [a.format(config=config, out=out) for a in README_COMMANDS[name]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(args)
    written = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    return code, hashlib.sha256(stdout.getvalue().encode()).hexdigest(), written


@pytest.mark.parametrize("name", sorted(README_COMMANDS))
def test_readme_command_output_is_pinned(tmp_path, name):
    assert readme_output(name, tmp_path) == (0, *README_SHA256[name])


# 3^p overflows from p = 646.1 but the mixture and barycenter bound
# 3^p / 2^(p-1) = 2 * 1.5^p is finite up to p = 1748.8
@pytest.mark.parametrize("args", [
    ["verify", "two-point", "--p", "700"],
    ["sweep", "--construction", "two-point", "--p", "2,700"],
    ["ratio", "--config", "{config}"],
], ids=["verify", "sweep", "ratio"])
def test_commands_whose_general_bound_is_finite_beyond_3_to_the_p_exit_0(
        capsys, tmp_path, args):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**_REAL_CONFIG, "X": {"atoms": [0.0], "probs": [1.0]},
                                  "Y": {"atoms": [1.0], "probs": [1.0]}, "p": 700}))
    code, _, err = run_cli([a.format(config=config) for a in args], capsys)
    assert (code, err) == (0, "")


# the bound's second term 2^C overflows from about p = 1024, where the first
# term, and so the min, is still finite
@pytest.mark.parametrize("args", [
    ["verify", "two-point", "--p", "1100"],
    ["verify", "two-point", "--p", "1748"],
    ["sweep", "--construction", "two-point", "--p", "2,1100"],
], ids=["verify-1100", "verify-1748", "sweep"])
def test_commands_whose_bm_bound_is_finite_beyond_2_to_the_C_exit_0(capsys, args):
    code, _, err = run_cli(args, capsys)
    assert (code, err) == (0, "")
