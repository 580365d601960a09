import csv
import json
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


@pytest.mark.parametrize("config,message", [
    # the moments overflow for real here, and numpy says so
    pytest.param({**_LQ_CONFIG, "p": 1e6}, "floating-point range",
                 marks=pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")),
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
    # do not; numpy says so
    pytest.param({"space": {"kind": "weighted_lq", "q": 1.0},
                  "X": {"atoms": [[[0, 0], [0, 0]]], "probs": [1.0]},
                  "Y": {"atoms": [[[0, 0], [1e300, 0]]], "probs": [1.0]}, "p": 1.5},
                 "floating-point range",
                 marks=pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")),
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


def test_ratio_at_extreme_magnitudes_writes_nothing_to_stderr(tmp_path):
    # the kernels recompute the pairs whose powers over- or underflow; the
    # first pass must not leak numpy's warnings into the output
    config = {"space": {"kind": "weighted_lq", "q": 3},
              "X": {"atoms": [[[1e200, 0], [0, 0]], [[0, 0], [1e200, 0]]],
                    "probs": [0.5, 0.5]},
              "Y": {"atoms": [[[-1e200, 0], [2e200, 0]]], "probs": [1.0]},
              "p": 1}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(config))
    env = {**os.environ, "PYTHONPATH": str(Path(momentmoduli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "momentmoduli.cli", "ratio",
                           "--config", str(path)], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "Roundness" in proc.stdout


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


# every start's moments overflow at this exponent, and numpy says so
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("space", [["realline"], ["lq", "--q", "2"]], ids=["realline", "lq"])
def test_search_whose_moments_all_overflow_exits_2(capsys, space):
    code, out, err = run_cli(_SEARCH + ["--space", *space, "--p", "1e6"], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: a value leaves the floating-point range: "
                   "no start of the search has a finite, nondegenerate ratio\n")
