import dataclasses
import json
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capdist
from capdist import bcregions, channel, cli
from capdist.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def child_env(**extra):
    """This environment, with the tested capdist first on PYTHONPATH."""
    src = str(Path(capdist.__file__).resolve().parent.parent)
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_import_leaves_scipy_unloaded():
    # the runtime needs NumPy alone; SciPy, a test dependency, is never loaded
    probe = "import sys, capdist, capdist.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], env=child_env()).returncode == 0


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_round_trips_through_loader(tmp_path, capsys):
    out = tmp_path / "binary.json"
    code, _, _ = run(capsys, "gen", "--builtin", "binary,q=0.4",
                     "--out", str(out))
    assert code == 0
    spec, _ = cli._load_json(str(out), "spec", channel.spec_from_dict)
    assert spec.input_size == 2
    assert np.allclose(spec.state_pmf, [0.6, 0.4])
    manifest = json.loads((tmp_path / "binary.json.manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert len(manifest["spec_digest_sha256"]) == 64


def test_gen_stdout_is_valid_json(capsys):
    code, out, _ = run(capsys, "gen", "--builtin", "erasure,p_s=0.3")
    assert code == 0
    spec = channel.spec_from_dict(json.loads(out))
    assert spec.feedback_size == 3


def test_unknown_builtin_is_input_error(capsys):
    code, _, err = run(capsys, "gen", "--builtin", "nope")
    assert code == 2
    assert "unknown builtin" in err


def test_bad_builtin_param_is_input_error(capsys):
    code, _, err = run(capsys, "gen", "--builtin", "binary,q")
    assert code == 2
    assert "not k=v" in err


@pytest.mark.parametrize("argv, message", [
    (["tradeoff", "--builtin", "binary", "--mu-grid", "0:1:0"], "needs n >= 1"),
    (["tradeoff", "--builtin", "binary", "--budget", "abc"], "must be a number"),
    (["gen", "--builtin", "binary,q=x"], "'q=x' is not numeric"),
    (["baselines", "--builtin", "dueck"], "expects a single-receiver spec"),
])
def test_bad_arguments_exit_2(capsys, argv, message):
    try:                                  # argparse exits on a bad --budget
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2 and message in err


def test_dueck_reduction_rejects_bad_receiver(capsys):
    # any receiver but 1 once selected receiver 2's state bit
    for receiver in ("3", "1.5"):
        code, out, err = run(capsys, "gen", "--builtin",
                             f"dueck-reduction,receiver={receiver}")
        assert code == 2 and out == ""
        assert "receiver must be 1 or 2" in err


def test_gaussian_point_counts_must_be_whole(capsys):
    # pam_points=4.9 once built 4-PAM and exited 0
    for param in ("pam_points=4.9", "state_points=inf", "noise_points=nan"):
        code, out, err = run(capsys, "gen", "--builtin", f"gaussian-reduced,{param}")
        assert code == 2 and out == ""
        assert "must be a whole number" in err


def test_missing_instance_is_input_error(capsys):
    code, _, err = run(capsys, "gen")
    assert code == 2
    assert "--spec or --builtin" in err


def test_invalid_spec_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "baselines", "--spec", str(bad))
    assert code == 2
    assert "invalid spec file" in err


def test_spec_file_without_required_field_is_input_error(tmp_path, capsys):
    # the missing distortion once raised a bare KeyError (traceback, exit 1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "sdmc", "state_pmf": [1.0], "law": [[[[1.0]]]]}))
    code, out, err = run(capsys, "tradeoff", "--spec", str(bad))
    assert code == 2 and out == ""
    assert "missing required spec fields: ['distortion']" in err


def test_spec_file_with_joint_and_marginal_laws_is_input_error(tmp_path, capsys):
    # the conflicting law_y was once dropped and the solve ran without a word
    doc = {"kind": "sdmc", "state_pmf": [1.0], "law": [[[[1.0]]]],
           "law_y": [[[0.5, 0.5]]], "distortion": [[0.0]]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "tradeoff", "--spec", str(bad))
    assert code == 2 and out == ""
    assert "both a joint law and marginal laws" in err


def test_joint_and_factored_spec_files_give_identical_outputs(tmp_path, capsys):
    # a dyadic joint law, so that renormalizing either file moves no bit;
    # only the report's digest of the raw file bytes may differ
    rng = np.random.default_rng(5)
    joint = rng.multinomial(8, np.full(6, 1 / 6), size=(3, 2)).reshape(3, 2, 2, 3) / 8
    base = {"kind": "sdmc", "state_pmf": [0.75, 0.25], "distortion": [[0.0, 1.0], [1.0, 0.0]],
            "cost": [0.0, 1.0, 2.0]}
    forms = [{**base, "law": joint.tolist()},
             {**base, "law_y": joint.sum(3).tolist(), "law_z": joint.sum(2).tolist()}]
    spec, out = tmp_path / "spec.json", tmp_path / "out"
    outputs = []
    for doc in forms:
        spec.write_text(json.dumps(doc))
        texts = []
        for argv in (["tradeoff", "--budget", "1", "--mu-grid", "0:4:5"],
                     ["baselines", "--budget", "1"], ["verify", "estimator"]):
            assert run(capsys, *argv, "--spec", str(spec), "--out", str(out))[0] == 0
            texts.append(re.sub(r'"spec_digest_sha256": "[0-9a-f]{64}"', "", out.read_text()))
        outputs.append(texts)
    assert outputs[0] == outputs[1]
    assert '"passed": true' in outputs[0][2]


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # every S*Y sum of the solver is taken within one row, so one and two
    # OpenBLAS threads write the same bytes; a BLAS dot split across threads
    # once moved the mu = 0 rate of the first command in its last bits
    commands = [
        ["tradeoff", "--builtin", "gaussian,state_points=100", "--budget", "10",
         "--mu-grid", "0:0:1"],
        ["tradeoff", "--builtin", "gaussian-reduced,state_points=100", "--budget", "0.5"],
        ["baselines", "--builtin", "gaussian-reduced,state_points=100", "--budget", "0.5"],
    ]
    script = ("import json, sys; from capdist.cli import main; "
              "sys.exit(any(main(argv) for argv in json.loads(sys.argv[1])))")
    children = []
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        argvs = [[*argv, "--out", str(tmp_path / threads / f"{i}.csv")]
                 for i, argv in enumerate(commands)]
        children.append(subprocess.Popen([sys.executable, "-c", script, json.dumps(argvs)],
                                         env=child_env(OPENBLAS_NUM_THREADS=threads)))
    assert [child.wait() for child in children] == [0, 0]
    for i in range(len(commands)):
        assert (tmp_path / "1" / f"{i}.csv").read_bytes() == \
            (tmp_path / "2" / f"{i}.csv").read_bytes()


# ---------------------------------------------------------------------------
# spec digest and manifests
# ---------------------------------------------------------------------------

def builtin(text):
    name, params = cli._parse_builtin(text)
    return cli.BUILTINS[name](**params)


def marginal_spec(**changes):
    """A two-state spec with marginal laws of one shape but unequal values."""
    fields = dict(state_pmf=[0.5, 0.5],
                  law_y=[[[1.0, 0.0], [0.5, 0.5]], [[0.25, 0.75], [0.0, 1.0]]],
                  law_z=[[[0.5, 0.5], [1.0, 0.0]], [[0.0, 1.0], [0.25, 0.75]]],
                  distortion=np.eye(2), cost=[0.0, 1.0], labels={"x": ["a", "b"]})
    return channel.SdmcSpec(**{**fields, **changes})


def test_spec_digest_is_stable_lowercase_hex():
    digest = cli._spec_digest(builtin("gaussian-reduced"))
    assert re.fullmatch("[0-9a-f]{64}", digest)
    assert cli._spec_digest(builtin("gaussian-reduced")) == digest
    assert cli._spec_digest(marginal_spec()) == cli._spec_digest(marginal_spec())


def test_spec_digest_sees_every_field_value():
    spec = marginal_spec()
    law_y = np.array(spec.law_y)
    law_y[1, 0, 0] = np.nextafter(law_y[1, 0, 0], 1.0)       # one ulp
    variants = [
        dataclasses.replace(spec, law_y=law_y),
        dataclasses.replace(spec, labels={"x": ["a", "c"]}),
        dataclasses.replace(spec, labels=None),
        dataclasses.replace(spec, law_y=spec.law_z, law_z=spec.law_y),
        dataclasses.replace(spec, cost=[1.0, 0.0]),
        dataclasses.replace(spec, distortion=channel.QuadraticDistortion([0.0, 1.0], [0.0, 1.0])),
        dataclasses.replace(spec, distortion=channel.QuadraticDistortion([0.0, 1.0], [0.0, 2.0])),
    ]
    digests = {cli._spec_digest(s) for s in [spec, *variants]}
    assert len(digests) == 1 + len(variants)


@pytest.mark.parametrize("text", [
    "binary",                                                  # law_z is law_y
    "gaussian,pam_points=2,state_points=3,noise_points=3",     # marginals, quadratic
    "dueck",                                                   # broadcast
])
def test_spec_digest_survives_json_round_trip(text):
    spec = builtin(text)
    again = channel.spec_from_dict(json.loads(json.dumps(channel.spec_to_dict(spec))))
    assert cli._spec_digest(again) == cli._spec_digest(spec)


def test_spec_digest_allocates_no_law_sized_buffer():
    spec = builtin("gaussian,state_points=100")     # 3.4 MB of law_y alone
    tracemalloc.start()
    try:
        cli._spec_digest(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_builtin_commands_never_serialize_the_spec(monkeypatch, capsys):
    def refuse(spec):
        raise RuntimeError("spec_to_dict called")

    monkeypatch.setattr(channel, "spec_to_dict", refuse)
    for argv in (["tradeoff", "--builtin", "binary", "--mu-grid", "0:1:2"],
                 ["baselines", "--builtin", "binary"],
                 ["bc", "degraded", "--builtin", "binary-bc", "--resolution", "2"],
                 ["verify", "estimator", "--builtin", "binary"]):
        assert run(capsys, *argv)[0] == 0, argv
    with pytest.raises(RuntimeError, match="spec_to_dict called"):
        main(["gen", "--builtin", "binary"])              # gen writes the dict


@pytest.mark.parametrize("argv, stages", [
    (["gen", "--builtin", "binary"], ["load_spec", "compute", "write"]),
    (["tradeoff", "--builtin", "binary", "--mu-grid", "0:1:2"],
     ["load_spec", "compute", "write"]),
    (["baselines", "--builtin", "binary"], ["load_spec", "compute", "write"]),
    (["bc", "degraded", "--builtin", "binary-bc", "--resolution", "2"],
     ["load_spec", "compute", "write"]),
    (["bc", "binary", "--resolution", "2"], ["compute", "write"]),
])
def test_manifest_records_versions_and_stage_times(tmp_path, capsys, argv, stages):
    out = tmp_path / "out"
    assert run(capsys, *argv, "--out", str(out))[0] == 0
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    assert list(manifest["stages_s"]) == stages
    assert all(t >= 0 for t in manifest["stages_s"].values())


# ---------------------------------------------------------------------------
# tradeoff
# ---------------------------------------------------------------------------

def test_tradeoff_is_deterministic_and_manifested(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "tradeoff", "--builtin", "binary",
                         "--mu-grid", "0:2:5", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().splitlines()
    assert lines[0] == "mu,rate_bits,distortion,cost,iterations,converged,gap"
    # every finite-mu row certifies its duality gap; the anchor is exact
    assert all(row.split(",")[5] == "1" and float(row.split(",")[6]) <= 1e-10
               for row in lines[1:])
    # 5 grid points plus the mu = inf anchor, sorted by distortion
    assert len(lines) == 7
    assert lines[1].split(",")[0] == "inf"
    # mu = 0 (last row) reproduces the capacity point
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(0.4, abs=1e-9)
    # distortion is flat near the optimum, so warm starts leave it loose
    assert float(last[2]) == pytest.approx(0.2, abs=1e-4)
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert manifest["command"] == "tradeoff"
    assert manifest["config"] == {"source": "builtin:binary", "budget": np.inf,
                                  "mu_grid": "0:2:5"}


def test_tradeoff_bad_mu_grid(capsys):
    code, _, err = run(capsys, "tradeoff", "--builtin", "binary",
                       "--mu-grid", "1:2")
    assert code == 2
    assert "mu-grid" in err
    code, _, _ = run(capsys, "tradeoff", "--builtin", "binary",
                     "--mu-grid", "1:x:3")
    assert code == 2


def test_tradeoff_rejects_negative_mu(capsys):
    code, out, err = run(capsys, "tradeoff", "--builtin", "binary",
                         "--mu-grid=-1:0:2")
    assert code == 2 and out == ""
    assert "mu >= 0" in err


def test_tradeoff_rejects_non_finite_mu(capsys):
    # 0:inf:3 once built mu = [0, inf, nan] and failed inside the solver
    for grid in ("0:inf:3", "nan:1:2", "0:nan:1"):
        code, out, err = run(capsys, "tradeoff", "--builtin", "binary",
                             "--mu-grid", grid)
        assert code == 2 and out == ""
        assert "finite" in err


def test_tradeoff_rejects_broadcast_spec(capsys):
    code, _, err = run(capsys, "tradeoff", "--builtin", "binary-bc")
    assert code == 2
    assert "single-receiver" in err


@pytest.mark.parametrize("argv", [["tradeoff"], ["baselines"], ["verify", "frontier"]])
def test_nan_budget_is_input_error(capsys, argv):
    # a NaN budget once reached estimator.d_min, which returned no pmf: a
    # TypeError traceback and exit 1, the verification-failure code
    with pytest.raises(SystemExit) as info:
        main([*argv, "--builtin", "binary", "--budget", "nan"])
    assert info.value.code == 2
    assert "--budget: must be a number, not 'nan'" in capsys.readouterr().err


def test_tradeoff_infeasible_budget_is_input_error(capsys):
    # budget below the cheapest input symbol: Infeasible -> CapdistError -> 2
    code, _, err = run(capsys, "tradeoff", "--builtin",
                       "gaussian-reduced,state_points=50",
                       "--budget", "1e-9", "--mu-grid", "0:0:1")
    assert code == 2


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def test_baselines_binary_values(tmp_path, capsys):
    out = tmp_path / "base.csv"
    code, _, _ = run(capsys, "baselines", "--builtin", "binary",
                     "--out", str(out))
    assert code == 0
    rows = {line.split(",")[0]: line.split(",")[1:]
            for line in out.read_text().strip().splitlines()[1:]}
    assert float(rows["capacity_point"][0]) == pytest.approx(0.4, abs=1e-9)
    assert float(rows["capacity_point"][1]) == pytest.approx(0.2, abs=1e-9)
    assert float(rows["d_trivial_point"][1]) == pytest.approx(0.4, abs=1e-9)
    assert float(rows["d_min_point"][1]) == pytest.approx(0.0, abs=1e-12)
    assert float(rows["improved_ts_end"][1]) == pytest.approx(0.2, abs=1e-9)


# ---------------------------------------------------------------------------
# bc
# ---------------------------------------------------------------------------

def test_bc_dueck_outer_stdout(capsys):
    code, out, _ = run(capsys, "bc", "dueck-outer", "--q", "0.75",
                       "--resolution", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("r0,")
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(1.0)
    assert float(first[3]) == pytest.approx(0.15625)


def test_bc_dueck_inner_writes_hull(tmp_path, capsys):
    out = tmp_path / "hull.csv"
    code, _, _ = run(capsys, "bc", "dueck-inner", "--q", "0.75",
                     "--resolution", "100", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "distortion,sum_rate"
    pts = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert pts[0][0] == pytest.approx(5 / 32)
    assert pts[0][1] == pytest.approx(1.0, abs=1e-12)


def test_bc_erasure_thresholds(capsys):
    code, out, _ = run(capsys, "bc", "erasure", "--e1", "0.2", "--s1", "0.12",
                       "--e2", "0.4", "--s2", "0.3")
    assert code == 0
    vals = out.strip().splitlines()[1].split(",")
    assert float(vals[0]) == pytest.approx(0.2 * 0.88)
    assert float(vals[1]) == pytest.approx(0.4 * 0.7)


def test_bc_degraded_requires_broadcast_spec(capsys):
    code, _, err = run(capsys, "bc", "degraded", "--builtin", "binary")
    assert code == 2
    assert "broadcast" in err


def test_bc_degraded_warns_on_a_channel_that_is_not_degraded(capsys):
    code, out, err = run(capsys, "bc", "degraded", "--builtin", "erasure-bc",
                         "--resolution", "2")
    assert code == 0 and out.startswith("r0,r1,r2,d1,d2,params\n")
    assert err.startswith("warning: spec is not physically degraded")


def test_bc_degraded_runs_on_builtin(capsys):
    code, out, _ = run(capsys, "bc", "degraded", "--builtin", "binary-bc",
                       "--resolution", "4")
    assert code == 0
    assert out.splitlines()[0] == "r0,r1,r2,d1,d2,params"
    assert len(out.strip().splitlines()) > 1


def test_bc_regions_reject_resolution_below_one(capsys):
    # resolution 0 once wrote a nan row and -1 a header-only CSV
    for region in ("degraded", "outer"):
        for resolution in ("0", "-1"):
            code, out, err = run(capsys, "bc", region, "--builtin", "binary-bc",
                                 "--resolution", resolution)
            assert code == 2 and out == ""
            assert "resolution" in err


def test_bc_closed_form_regions_reject_resolution_below_one(capsys):
    # resolution -2 once died in np.linspace with exit 1, the verification code
    for region in ("binary", "flipped", "dueck-inner", "dueck-outer"):
        for resolution in ("0", "-2"):
            code, out, err = run(capsys, "bc", region, "--resolution", resolution)
            assert code == 2 and out == ""
            assert "resolution" in err


@pytest.mark.parametrize("region, flag, value", [
    ("erasure", "--e1", "1.5"), ("erasure", "--s1", "-0.1"), ("erasure", "--e2", "nan"),
    ("erasure", "--s2", "inf"), ("dueck-inner", "--q", "-0.5"), ("dueck-outer", "--q", "2"),
    ("binary", "--q", "1.0000001"), ("flipped", "--gamma", "-1"), ("binary", "--gamma", "x"),
])
def test_bc_closed_form_parameters_must_be_probabilities(capsys, region, flag, value):
    # each once printed a region and exited 0: erasure at e1 = 1.5 a d1
    # threshold of 1.32, dueck-inner at q = -0.5 a sum rate 1.75 at D = -0.25
    with pytest.raises(SystemExit) as info:
        main(["bc", region, flag, value])
    out, err = capsys.readouterr()
    assert info.value.code == 2 and out == ""
    assert f"argument {flag}: must be a number in [0, 1], not '{value}'" in err


def test_bc_closed_form_parameters_take_the_unit_interval_ends(capsys):
    for argv in (["erasure", "--e1", "1", "--s1", "0", "--e2", "0", "--s2", "1"],
                 ["binary", "--q", "1", "--gamma", "0"], ["dueck-outer", "--q", "0"]):
        code, out, _ = run(capsys, "bc", *argv, "--resolution", "2")
        assert code == 0 and out


def test_bc_outer_rate_caps_are_nonnegative(capsys):
    # mutual informations are >= 0; unclamped rounding once wrote -2.2e-16
    # into the rate caps of the first invocation and -1.1e-16 into 192 sum-rate
    # caps of the second
    for argv, n_rows in ((["dueck,q=0.75", "--resolution", "4"], 3960),
                         (["dueck,q=0.6", "--resolution", "5", "--seed", "3"], 9504)):
        code, out, _ = run(capsys, "bc", "outer", "--builtin", *argv)
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == n_rows
        assert min(float(v) for row in rows for v in row[:3]) >= 0.0


def test_bc_region_csv_formats_are_pinned(capsys):
    def text(*argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        return out

    def lines(*argv):
        return text("bc", *argv).splitlines()

    def as_json(rows):
        return json.dumps(rows, indent=1) + "\n"

    head = "r0,r1,r2,d1,d2,params"
    binary = ["--q", "0.6", "--gamma", "0.5", "--resolution", "1"]
    assert lines("binary", *binary) == [
        head,
        "0.0,0.0,0.0,0.0,0.0,p=0.0;r=0.0",
        "0.0,0.0,0.0,0.0,0.0,p=0.0;r=1.0",
        "0.0,0.0,0.0,0.4,0.3,p=1.0;r=0.0",
        "0.0,0.0,0.0,0.4,0.3,p=1.0;r=1.0"]
    assert lines("flipped", *binary) == [
        head,
        "0.0,0.0,0.0,0.0,0.3,p=0.0;r=0.0",
        "0.0,0.0,0.0,0.0,0.3,p=0.0;r=1.0",
        "0.0,0.0,0.0,0.3,0.0,p=1.0;r=0.0",
        "0.0,0.0,0.0,0.3,0.0,p=1.0;r=1.0"]
    assert lines("dueck-outer", "--q", "0.75", "--resolution", "1") == [
        head,
        "1.0,1.0,1.0,0.15625,0.15625,t=0.0",
        "1.0,1.0,1.0,0.1875,0.1875,t=1.0"]
    # vector parameters (the pmfs) are left out of the params column
    outer = lines("outer", "--builtin", "binary-bc", "--resolution", "1")
    names = ["identity", "constant"] + [f"random{j}" for j in range(10)]
    assert [row.split(",")[5] for row in outer[1:]] == [
        f"aux={name}" for name in names for _ in range(2)]
    degraded = lines("degraded", "--builtin", "binary-bc", "--resolution", "1")
    assert [row.split(",")[5] for row in degraded[1:]] == [""] * 6
    assert lines("dueck-inner", "--q", "0.75", "--resolution", "1") == [
        "distortion,sum_rate", "0.15625,1.0", "0.1875,0.8125"]
    assert text("bc", "erasure", "--format", "json") == as_json(
        [{"d1_threshold": 0.17600000000000002, "d2_threshold": 0.27999999999999997}])
    # the other tables: the mu = inf anchor, converged as 1 or true,
    # integer iterations, and the certified duality gap
    erasure = ["tradeoff", "--builtin", "erasure", "--mu-grid", "0:1:2"]
    assert text(*erasure).splitlines() == [
        "mu,rate_bits,distortion,cost,iterations,converged,gap",
        "1.0,0.5,0.0,0.0,1,1,0.0", "0.0,0.5,0.0,0.0,1,1,0.0", "inf,0.0,0.0,0.0,0,1,0.0"]
    keys = ("mu", "rate_bits", "distortion", "cost", "iterations", "converged", "gap")
    assert text(*erasure, "--format", "json") == as_json(
        [dict(zip(keys, row)) for row in ((1.0, 0.5, 0.0, 0.0, 1, True, 0.0),
                                          (0.0, 0.5, 0.0, 0.0, 1, True, 0.0),
                                          (np.inf, 0.0, 0.0, 0.0, 0, True, 0.0))])
    assert text("baselines", "--builtin", "binary", "--format", "json") == as_json(
        [{"name": name, "rate_bits": rate, "distortion": dist} for name, rate, dist in (
            ("d_min_point", 0.0, 0.0), ("capacity_point", 0.4, 0.2),
            ("d_trivial_point", 0.4, 0.4), ("basic_ts_start", 0.0, 0.0),
            ("basic_ts_end", 0.4, 0.4), ("improved_ts_start", 0.0, 0.0),
            ("improved_ts_end", 0.4, 0.2))])


_SPECIAL_FLOATS = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.5e-308,
                   np.finfo(float).tiny, 1.0, 0.1]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_cells_of_a_float_array_are_str_of_each_value(data):
    # formatted once per distinct bit pattern: 0.0 and -0.0 stay apart
    pool = data.draw(st.lists(st.floats(allow_subnormal=True), max_size=6)) + _SPECIAL_FLOATS
    column = data.draw(st.lists(st.sampled_from(pool), max_size=40)) + _SPECIAL_FLOATS
    column = data.draw(st.permutations(column))
    assert list(cli._cells(np.array(column, dtype=float))) == [str(v) for v in column]


def test_cells_of_bool_int_and_string_columns():
    flags = [True, False, False, True]
    assert list(cli._cells(flags)) == list(cli._cells(np.array(flags))) == ["1", "0", "0", "1"]
    ints = [3, -1, 3, 0, 2**62]
    assert list(cli._cells(ints)) == list(cli._cells(np.array(ints))) == list(map(str, ints))
    names = ["identity", "random1", "identity", ""]
    assert list(cli._cells(names)) == list(cli._cells(np.array(names))) == names
    # a column of Python scalars is formatted value by value, as given
    assert cli._cells([1, 1.0, True, -0.0]) == ["1", "1.0", "True", "-0.0"]
    assert list(cli._cells(np.array([1.0, -0.0, 0.0]))) == ["1.0", "-0.0", "0.0"]
    assert list(cli._cells(np.zeros(0))) == []
    # a prefix goes before every cell, formatted once per distinct value
    assert list(cli._cells(np.array(names), "aux=")) == [f"aux={v}" for v in names]
    assert cli._cells(flags, "f=") == ["f=1", "f=0", "f=0", "f=1"]


def test_csv_write_working_set_is_one_row_block(tmp_path):
    # `bc degraded --builtin binary-bc --resolution 16`: 20,349 rows, 1.3 MB
    # of text; joined in one write, its lines trace a 4.5 MiB peak, and
    # _WRITE_ROWS lines at a time about 1.8 MiB (the cells of every column)
    samples = bcregions.degraded_region(builtin("binary-bc"), resolution=16)
    columns = cli._region_columns(samples)
    tracemalloc.start()
    try:
        cli._write_table(str(tmp_path / "deg.csv"), "csv", columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "deg.csv").read_bytes().count(b"\n") == len(samples) + 1
    assert peak < 2.5 * (1 << 20)


@pytest.mark.parametrize("rows", [0, 1, 5, 6, 7])
def test_csv_row_blocks_write_the_same_bytes(tmp_path, capsys, monkeypatch, rows):
    columns = {"a": np.arange(rows) / 3.0, "flag": [v % 2 == 0 for v in range(rows)],
               "name": [f"n{v}" for v in range(rows)]}
    cli._write_table(str(tmp_path / "one.csv"), "csv", columns)
    monkeypatch.setattr(cli, "_WRITE_ROWS", 3)
    cli._write_table(str(tmp_path / "blocks.csv"), "csv", columns)
    cli._write_table("", "csv", columns)
    one = (tmp_path / "one.csv").read_bytes()
    assert (tmp_path / "blocks.csv").read_bytes() == one
    assert capsys.readouterr().out.encode() == one
    assert one.count(b"\n") == rows + 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_estimator_passes(capsys):
    code, out, err = run(capsys, "verify", "estimator", "--builtin", "binary")
    assert code == 0
    assert json.loads(out)["passed"] is True
    assert "PASS" in err


def test_verify_no_tradeoff_erasure_passes(capsys):
    code, out, _ = run(capsys, "verify", "no-tradeoff", "--builtin",
                       "erasure,p_s=0.3")
    assert code == 0
    rep = json.loads(out)
    assert rep["worst_markov"] < 1e-12
    assert set(rep) == {"check", "source", "spec_digest_sha256", "worst_independence",
                        "worst_markov", "tol", "passed"}


_NO_TRADEOFF_VERDICTS = {           # builtin: (passed, worst_independence)
    "erasure": (True, 0.0),
    "binary": (False, 0.6),
    "dueck-reduction": (False, 0.28125),
    "gaussian,state_points=100": (False, 0.0257),
    "gaussian-reduced": (False, 0.0121),
    "erasure-bc": (True, (0.0, 0.0)),
    "binary-bc": (False, (0.6, 0.7)),
    "flipped-bc": (False, (0.4, 0.3)),
    "dueck": (False, (0.375, 0.375)),
}


@pytest.mark.parametrize("builtin", list(_NO_TRADEOFF_VERDICTS))
def test_verify_no_tradeoff_every_builtin(capsys, builtin):
    passed, worst_independence = _NO_TRADEOFF_VERDICTS[builtin]
    # psi* comes from the channel; a broadcast spec runs CD = C x D and
    # reports each deviation as a (receiver 1, receiver 2) pair
    code, out, err = run(capsys, "verify", "no-tradeoff", "--builtin", builtin)
    assert code == (0 if passed else 1)
    assert err == ("PASS\n" if passed else "FAIL\n")
    rep = json.loads(out)
    assert list(rep) == ["check", "source", "spec_digest_sha256", "worst_independence",
                         "worst_markov", "tol", "passed"]
    assert rep["passed"] is passed and rep["tol"] == 1e-9
    if isinstance(worst_independence, tuple):
        assert len(rep["worst_independence"]) == len(rep["worst_markov"]) == 2
        worst_independence = list(worst_independence)
    assert rep["worst_independence"] == pytest.approx(worst_independence, rel=5e-3)
    if passed:
        assert max(np.ravel(rep["worst_markov"])) <= 1e-12


def test_verify_no_tradeoff_reads_a_broadcast_spec_file(tmp_path, capsys):
    # the spec's type, not an option, picks the CD = C x D check
    spec = tmp_path / "erasure-bc.json"
    assert run(capsys, "gen", "--builtin", "erasure-bc", "--out", str(spec))[0] == 0
    code, out, _ = run(capsys, "verify", "no-tradeoff", "--spec", str(spec))
    assert code == 0
    rep = json.loads(out)
    assert rep["source"] == str(spec) and len(rep["worst_markov"]) == 2


@pytest.mark.skipif(platform.system() != "Linux", reason="ru_maxrss is in KiB on Linux")
def test_verify_no_tradeoff_full_gaussian_in_bounded_memory(tmp_path):
    # psi* has 1,662 classes on the full grid: a dense W(x, s, t) would need GBs.
    # The spec's banded laws hold 160 MB; dense, they would hold 582 MB
    out = tmp_path / "report.json"
    # a child's ru_maxrss starts at the peak of the memory it leaves at exec,
    # which with vfork is this process's, so the CLI runs as the grandchild
    # of a small Python process that reports its exit code and ru_maxrss
    script = ("import os, subprocess, sys; p = subprocess.Popen(sys.argv[1:], "
              "stderr=subprocess.DEVNULL); _, status, usage = os.wait4(p.pid, 0); "
              "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")
    report = subprocess.run([sys.executable, "-c", script, sys.executable, "-m", "capdist.cli",
                             "verify", "no-tradeoff", "--builtin", "gaussian", "--out", str(out)],
                            env=child_env(), capture_output=True, text=True, check=True)
    code, maxrss_kib = map(int, report.stdout.split())
    assert code == 1
    assert json.loads(out.read_text())["passed"] is False
    assert maxrss_kib <= 450e6 / 1024


@pytest.mark.parametrize("check", ["estimator", "frontier", "distortion-mc"])
def test_verify_rejects_broadcast_spec(capsys, check):
    code, out, err = run(capsys, "verify", check, "--builtin", "dueck")
    assert code == 2 and out == ""
    assert f"error: {check} check expects a single-receiver spec" in err


def test_verify_distortion_mc(capsys):
    code, out, _ = run(capsys, "verify", "distortion-mc", "--builtin",
                       "binary", "--samples", "20000", "--seed", "7")
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["z_score"]) <= 4.0


def test_verify_distortion_mc_rejects_zero_samples(capsys):
    # exit 1 means a failed verification, not a bad argument
    code, out, err = run(capsys, "verify", "distortion-mc", "--builtin",
                         "binary", "--samples", "0")
    assert code == 2 and out == ""
    assert "--samples" in err


def test_verify_frontier_binary(capsys):
    code, out, _ = run(capsys, "verify", "frontier", "--builtin", "binary")
    assert code == 0
    assert json.loads(out)["worst_gap"] <= 2e-3
