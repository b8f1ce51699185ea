import json

import numpy as np
import pytest

from conftest import normalized_by_overlaps
from hyqent import MODE, HybridState, SymbolicKet, composite, compression, negativity
from hyqent.catalog import FAMILIES
from hyqent.cli import MEASURES, SpecError, build_state, main, validate_spec


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_spec_validation_rejects_unknown_keys():
    with pytest.raises(Exception):
        validate_spec({"family": "ghz", "bogus": 1})
    with pytest.raises(Exception):
        validate_spec({"family": "no-such-family"})
    validate_spec({"family": "ghz"})


@pytest.mark.parametrize("key, value", [("n_cut", 20), ("tail_tol", 1e-8)])
def test_spec_keys_no_command_reads_are_rejected(tmp_path, capsys, key, value):
    doc = {"family": "binary-coherent", "params": {"alpha": 1.0}, key: value}
    with pytest.raises(SpecError):
        validate_spec(doc)
    assert main(["measure", write_spec(tmp_path, doc), "--measure", "entropy"]) == 2
    assert f"unknown spec keys ['{key}']" in capsys.readouterr().err


def test_classify_binary_coherent(tmp_path, capsys):
    spec = write_spec(tmp_path, {"family": "binary-coherent", "params": {"alpha": 1.0}})
    assert main(["classify", spec]) == 0
    out = capsys.readouterr().out
    assert "pure-dv-like" in out
    assert "effective dimensions: 2 x 2" in out
    assert "gram" in out.lower()


def test_classify_thermal_is_truly_hybrid(tmp_path, capsys):
    spec = write_spec(tmp_path, {"family": "thermal-output",
                                 "params": {"alpha": 1.0, "eta": 0.7, "n_th": 0.5}})
    assert main(["classify", spec]) == 0
    assert "truly-hybrid" in capsys.readouterr().out


@pytest.mark.parametrize("family", ["ghz", "w"])
def test_classify_a_discrete_variable_state(tmp_path, capsys, family):
    assert main(["classify", write_spec(tmp_path, {"family": family})]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"family: {family}", "classification: discrete-variable state",
        "effective dimensions: 2 x 2 x 2"]


@pytest.mark.parametrize("workers", ["1", "3"])
def test_a_parameter_the_family_does_not_take_exits_2(tmp_path, capsys, workers):
    spec = write_spec(tmp_path, {"family": "binary-coherent",
                                 "params": {"alpha": 1.0, "beta": 0.5}})
    error = ["error: family binary-coherent does not take parameter 'beta'"]
    assert main(["measure", spec, "--measure", "concurrence"]) == 2
    assert capsys.readouterr().err.splitlines() == error
    out = tmp_path / "sweep.csv"
    assert main(["sweep", spec, "--axis", "phi=0,1", "--output", "concurrence",
                 "--out", str(out), "--workers", workers]) == 2
    assert capsys.readouterr().err.splitlines() == error
    assert not out.exists()


@pytest.mark.parametrize("family, params, axes, error", [
    ("thermal-output", {"eta": 0.7, "n_th": 0.1, "beta": 5}, ["alpha=0.5,1"],
     "error: family thermal-output does not take parameter 'beta'"),
    ("binary-coherent", {}, ["alpha=0.5,1", "eta=0.5", "n_th=0.1"],
     "error: family binary-coherent does not take parameter 'eta'"),
])
@pytest.mark.parametrize("workers", ["1", "3"])
def test_a_closed_form_sweep_checks_the_family_first(tmp_path, capsys, family, params, axes,
                                                      error, workers):
    spec = write_spec(tmp_path, {"family": family, "params": params})
    out = tmp_path / "sweep.csv"
    axis_args = [arg for axis in axes for arg in ("--axis", axis)]
    assert main(["sweep", spec, *axis_args, "--output", "thermal_s1_closed", "--out", str(out),
                 "--workers", workers]) == 2
    assert capsys.readouterr().err.splitlines() == [error]
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "3"])
def test_a_closed_form_that_overflows_to_inf_exits_2(tmp_path, capsys, workers):
    # |alpha|^2 leaves the double range at alpha = 1e200, and geom_s1_bound grows with it
    spec = write_spec(tmp_path, {"family": "geometric-mixture", "params": {"x": 0.5}})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", spec, "--axis", "alpha=0.5,1e200", "--output", "geom_s1_bound",
                 "--out", str(out), "--workers", workers]) == 2
    assert capsys.readouterr().err.splitlines() == [
        """error: output 'geom_s1_bound' overflows to inf at {"x": 0.5, "alpha": 1e+200}"""]
    assert not out.exists()
    # thermal_threshold's inf at eta >= 1 is its value, and is written
    spec = write_spec(tmp_path, {"family": "thermal-output", "params": {"n_th": 0.0}})
    assert main(["sweep", spec, "--axis", "eta=0.5,1", "--axis", "alpha=0.5",
                 "--output", "thermal_threshold_closed", "--out", str(out),
                 "--workers", workers]) == 0
    assert out.read_text().splitlines()[-1] == "1,0.5,inf"


def test_classify_malformed_spec_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["classify", str(path)]) == 2
    spec = write_spec(tmp_path, {"family": "binary-coherent", "extra_key": 1})
    assert main(["classify", spec]) == 2


def test_measure_cat_concurrence(tmp_path, capsys):
    spec = write_spec(tmp_path, {"family": "two-mode-cat",
                                 "params": {"alpha": 1.0, "phi": np.pi}})
    assert main(["measure", spec, "--measure", "concurrence"]) == 0
    out = capsys.readouterr().out
    assert float(out.splitlines()[0]) == pytest.approx(1.0, abs=1e-10)


def test_measure_ghz_tangle(tmp_path, capsys):
    spec = write_spec(tmp_path, {"family": "ghz"})
    assert main(["measure", spec, "--measure", "tau_res"]) == 0
    assert float(capsys.readouterr().out.splitlines()[0]) == pytest.approx(1.0)


@pytest.mark.parametrize("doc", [{"family": "binary-coherent", "params": {"alpha": 0.0}},
                                 {"family": "jcm", "params": {"alpha": 1.0, "varphi": 0.0}}],
                         ids=["binary-coherent", "jcm"])
def test_product_state_entropy_prints_zero(tmp_path, capsys, doc):
    assert main(["measure", write_spec(tmp_path, doc), "--measure", "entropy"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "0"


def test_measure_inapplicable_exits_3(tmp_path, capsys):
    spec = write_spec(tmp_path, {"family": "qutrit-qumode", "params": {"alpha": 1.0}})
    assert main(["measure", spec, "--measure", "concurrence"]) == 3


def test_moment_witness_on_squeezed_kets_exits_3(tmp_path, capsys):
    spec = write_spec(tmp_path, {"family": "squeezed-binary-coherent",
                                 "params": {"alpha": 1.0, "r": 0.3}})
    assert main(["measure", spec, "--measure", "s1"]) == 3
    err = capsys.readouterr().err
    assert "moment witnesses need a coherent-family" in err
    assert "coherent kets" in err


FOCK_HYBRID = {"family": "hybrid", "params": {"qudit_dim": 2, "terms": [{"p": 1.0, "branches": [
    {"c": 0.6, "m": 0, "ket": {"kind": "fock", "n": 0}},
    {"c": 0.8, "m": 1, "ket": {"kind": "fock", "n": 2}}]}]}}


@pytest.mark.parametrize("doc", [
    {"family": "squeezed-binary-coherent", "params": {"alpha": 0.9, "r": 0.3}}, FOCK_HYBRID],
    ids=["squeezed", "fock"])
def test_moment_witness_on_plain_states_names_no_channel(tmp_path, capsys, doc):
    assert main(["measure", write_spec(tmp_path, doc), "--measure", "s1"]) == 3
    err = capsys.readouterr().err
    assert "coherent kets" in err
    assert "thermal channel" not in err


def _shared_level_spec(scale=1.0):
    """Inline qubit spec with two branches on level 0, normalized through their overlap."""
    raw = [(0.6, (0, SymbolicKet.coherent(1.0))), (0.6j, (0, SymbolicKet.coherent(-1.0))),
           (0.5, (1, SymbolicKet.fock(1)))]
    normalized = normalized_by_overlaps((2, MODE), raw)
    branches = [{"c": [c.real * scale, c.imag * scale], "m": m,
                 "ket": {"kind": "fock", "n": k.k} if k.kind == "fock"
                 else {"kind": "coherent", "alpha": k.alpha.real}}
                for c, (m, k) in normalized]
    doc = {"family": "hybrid", "params": {"qudit_dim": 2, "terms": [
        {"p": 1.0, "branches": branches}]}}
    return doc, HybridState.pure((2, MODE), normalized)


def test_inline_hybrid_spec_with_shared_level(tmp_path, capsys):
    doc, state = _shared_level_spec()
    assert main(["measure", write_spec(tmp_path, doc), "--measure", "negativity"]) == 0
    value = float(capsys.readouterr().out.splitlines()[0])
    assert abs(value - negativity(state.to_fock_density(40))) < 1e-10
    doc, _ = _shared_level_spec(scale=1.01)
    assert main(["measure", write_spec(tmp_path, doc), "--measure", "negativity"]) == 2


def _one_branch(ket, m=0, qudit_dim=2):
    return {"family": "hybrid", "params": {"qudit_dim": qudit_dim, "terms": [
        {"p": 1.0, "branches": [{"c": 1.0, "m": m, "ket": ket}]}]}}


@pytest.mark.parametrize("doc", [
    _one_branch({"kind": "fock", "n": 2.7, "alpha": 3.0}),
    _one_branch({"kind": "fock", "n": 2, "alpha": 3.0}),
    _one_branch({"kind": "fock", "n": 2.7}),
    _one_branch({"kind": "fock", "n": "2"}),
    _one_branch({"kind": "coherent", "alpha": 0.5, "k": 4}),
    _one_branch({"kind": "coherent", "alpha": True}),
    _one_branch({"kind": "photon_added_coherent", "k": 1.9}),
    _one_branch({"kind": "displaced_squeezed", "alpha": 0.5, "r": "0.3"}),
    _one_branch({"kind": "coherent"}, m=0.5),
    _one_branch({"kind": "coherent"}, m=False),
    _one_branch({"kind": "coherent"}, qudit_dim=2.5),
    {"family": "qubit-qumode", "params": {"phi": True}},
    {"family": "qubit-qumode", "params": {"ket1": {"kind": "coherent", "n": 1}}},
    {"family": "binary-coherent", "params": {"alpha": 1.0, "phi": "0.5"}},
    {"family": "binary-coherent", "params": {"alpha": 10 ** 400}},
    _one_branch({"kind": "coherent", "alpha": [0.5, float("inf")]})])
def test_ket_keys_and_values_a_kind_cannot_hold_exit_2(tmp_path, capsys, doc):
    assert main(["classify", write_spec(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _cat_hybrid(params=None, term=None, branch=None, ket=None):
    """Inline binary-coherent spec at alpha = 1 with extra keys at any level."""
    c = 0.7071067811865476
    branches = [{"c": c, "m": 0, "ket": {"kind": "coherent", "alpha": 1.0, **(ket or {})},
                 **(branch or {})}, {"c": c, "m": 1, "ket": {"kind": "coherent", "alpha": -1.0}}]
    return {"family": "hybrid", "params": {"qudit_dim": 2, "terms": [
        {"p": 1.0, "branches": branches, **(term or {})}], **(params or {})}}


@pytest.mark.parametrize("doc, shown", [
    (_cat_hybrid(params={"alpha": 3}), "unknown params keys ['alpha']"),
    (_cat_hybrid(term={"extra": 1}), "unknown terms[0] keys ['extra']"),
    (_cat_hybrid(branch={"zzz": 4}), "unknown terms[0] branch keys ['zzz']"),
    (_cat_hybrid(ket={"n": 2}), "unknown terms[0] coherent ket keys ['n']"),
    ({**_cat_hybrid(), "extra": 1}, "unknown spec keys ['extra']")])
def test_unknown_keys_at_every_level_of_an_inline_hybrid_exit_2(tmp_path, capsys, doc, shown):
    assert main(["measure", write_spec(tmp_path, _cat_hybrid()), "--measure", "concurrence"]) == 0
    capsys.readouterr()
    assert main(["measure", write_spec(tmp_path, doc), "--measure", "concurrence"]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and shown in line


@pytest.mark.parametrize("workers", ["1", "3"])
def test_a_sweep_axis_an_inline_hybrid_does_not_take_exits_2(tmp_path, capsys, workers):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", write_spec(tmp_path, _cat_hybrid()), "--axis", "alpha=0.1,0.9",
                 "--output", "concurrence", "--out", str(out), "--workers", workers]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line == "error: invalid inline hybrid state: unknown params keys ['alpha']"
    assert not out.exists()


@pytest.mark.parametrize("args, code, shown", [
    (["measure", "{cat}", "--measure", "foo"], 2, "unknown measure 'foo'"),
    (["measure", "{list}", "--measure", "concurrence"], 2, "spec must be a JSON object"),
    (["measure", "{params}", "--measure", "concurrence"], 2, "params must be an object"),
    (["measure", "{ket}", "--measure", "concurrence"], 2, "ket must be an object"),
    (["measure", "{missing}", "--measure", "concurrence"], 2, "cannot read spec"),
    (["measure", "{no_phi}", "--measure", "concurrence"], 2, "bad parameters for two-mode-cat"),
    (["sweep", "{cat}", "--axis", "alpha", "--output", "concurrence"], 2, "axis 'alpha'"),
    (["sweep", "{cat}", "--axis", "alpha=0:1", "--output", "concurrence"], 2, "range form"),
    (["sweep", "{cat}", "--axis", "alpha=0:1:0", "--output", "concurrence"], 2, "count must"),
    (["sweep", "{cat}", "--axis", "phi=0", "--output", ","], 2, "needs at least one --output"),
    (["sweep", "{cat}", "--axis", "phi=0", "--output", "foo"], 2, "unknown output 'foo'"),
    (["reproduce", "det-24", "--out-dir", "{file}/figures"], 4, "cannot create")])
def test_cli_input_errors_exit_with_one_error_line(tmp_path, capsys, args, code, shown):
    paths = {
        "cat": write_spec(tmp_path, {"family": "two-mode-cat",
                                     "params": {"alpha": 1.0, "phi": 0.0}}, "cat.json"),
        "list": write_spec(tmp_path, [1], "list.json"),
        "params": write_spec(tmp_path, {"family": "binary-coherent", "params": [1]},
                             "params.json"),
        "ket": write_spec(tmp_path, _one_branch(5), "ket.json"),
        "missing": str(tmp_path / "missing.json"),
        "no_phi": write_spec(tmp_path, {"family": "two-mode-cat", "params": {"alpha": 1.0}},
                             "no_phi.json"),
        "file": write_spec(tmp_path, {}, "file")}
    out = tmp_path / "sweep.csv"
    args = [a.format(**paths) for a in args]
    if args[0] == "sweep":
        args += ["--out", str(out)]
    assert main(args) == code
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and shown in line
    assert not out.exists()


def test_ket_specs_take_integral_floats_and_default_missing_keys():
    def ket(spec):
        return build_state("hybrid", _one_branch(spec)["params"]).payload.kets()[0]
    assert ket({"kind": "fock", "n": 2.0}) == SymbolicKet.fock(2)
    assert ket({"kind": "displaced_squeezed"}) == SymbolicKet.vacuum()
    assert ket({"kind": "photon_added_coherent", "alpha": [0.5, 0.1]}) == \
        SymbolicKet.coherent(0.5 + 0.1j)


def test_measure_header_reports_module_tolerances(tmp_path, capsys):
    spec = write_spec(tmp_path, {"family": "two-mode-cat",
                                 "params": {"alpha": 1.0, "phi": np.pi}})
    assert main(["measure", spec, "--measure", "concurrence"]) == 0
    line = [l for l in capsys.readouterr().out.splitlines()
            if l.startswith("# tolerances: ")][0]
    assert json.loads(line[len("# tolerances: "):]) == {
        "dependence_tol": compression.DEPENDENCE_TOL,
        "trace_tol": composite.TRACE_TOL,
        "hermitian_tol": composite.HERMITIAN_TOL,
        "eig_tol": composite.EIG_TOL,
    }


def test_inline_hybrid_spec(tmp_path, capsys):
    doc = {"family": "hybrid", "params": {
        "qudit_dim": 2,
        "terms": [{"p": 1.0, "branches": [
            {"c": 0.7071067811865476, "m": 0, "ket": {"kind": "coherent", "alpha": 1.0}},
            {"c": 0.7071067811865476, "m": 1, "ket": {"kind": "coherent", "alpha": -1.0}},
        ]}]}}
    spec = write_spec(tmp_path, doc)
    assert main(["measure", spec, "--measure", "concurrence"]) == 0
    out = capsys.readouterr().out
    assert float(out.splitlines()[0]) == pytest.approx(np.sqrt(1 - np.exp(-4)), abs=1e-9)


# the six exact-grid family x measure pairs; each grid holds more than one template
# (eta = 1 is a one-term pure state, alpha = 1e-7 a rank collapse, p = 0 one term,
# alpha = 0 and theta = 0 one distinct ket), so three chunks split template groups
WORKER_SWEEPS = [
    ("two-mode-cat", ["alpha=0.25:1.5:4", "phi=0:3.14:4"], "concurrence,cat_concurrence_closed"),
    ("damped-binary-coherent", ["alpha=1e-7,0.4,0.9,1.6", "eta=0.3,1.0,0.6"],
     "concurrence,damped_concurrence_closed"),
    ("mixed-23", ["p=0,0.3,0.7", "alpha=1e-7,0.5,1.4,2.2"], "log_negativity"),
    ("qutrit-qumode", ["alpha=0,0.2,0.7,1e-7,1.3,2.0,0.9"], "entropy"),
    ("qubus", ["alpha=0.5,1.2,1e-7", "theta=0,0.4,2.5,1.7"], "purity"),
    ("tripartite-qmm", ["q_phi=0:1:4", "q_psi=0:1:5"], "tau_res,residual_tangle_closed"),
]


def test_sweep_deterministic_across_workers(tmp_path):
    for family, axes, outputs in WORKER_SWEEPS:
        params = {"eta": 0.8} if family == "qubus" else {}
        spec = write_spec(tmp_path, {"family": family, "params": params})
        args = ["sweep", spec, *[a for axis in axes for a in ("--axis", axis)],
                "--output", outputs]
        out1, out3 = str(tmp_path / "w1.csv"), str(tmp_path / "w3.csv")
        assert main(args + ["--out", out1, "--workers", "1"]) == 0
        assert main(args + ["--out", out3, "--workers", "3"]) == 0
        b1 = open(out1, "rb").read()
        assert b1 == open(out3, "rb").read(), family
        # rerun is byte-identical too
        assert main(args + ["--out", out1, "--workers", "1"]) == 0
        assert b1 == open(out1, "rb").read(), family


def test_sweep_csv_layout(tmp_path):
    spec = write_spec(tmp_path, {"family": "two-mode-cat", "params": {"phi": 0.0}})
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep", spec, "--axis", "alpha=0.5,1.0", "--output",
                 "cat_concurrence_closed", "--out", out]) == 0
    lines = open(out).read().splitlines()
    meta = [l for l in lines if l.startswith("# ")]
    assert any("hyqent" in l for l in meta)
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "alpha,cat_concurrence_closed"
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 2
    val = float(rows[1].split(",")[1])
    assert val == pytest.approx((1 - np.exp(-4)) / (1 + np.exp(-4)), abs=1e-9)


def test_sweep_empty_axis_gives_header_only(tmp_path):
    spec = write_spec(tmp_path, {"family": "two-mode-cat", "params": {"phi": 0.0}})
    out = str(tmp_path / "empty.csv")
    assert main(["sweep", spec, "--axis", "alpha=", "--output",
                 "cat_concurrence_closed", "--out", out]) == 0
    rows = [l for l in open(out).read().splitlines() if not l.startswith("#")]
    assert rows == ["alpha,cat_concurrence_closed"]


def test_sweep_json_format(tmp_path):
    spec = write_spec(tmp_path, {"family": "two-mode-cat", "params": {"phi": 0.0}})
    out = str(tmp_path / "sweep.json")
    assert main(["sweep", spec, "--axis", "alpha=0.5,1.0", "--output",
                 "cat_concurrence_closed", "--format", "json", "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert doc["columns"] == ["alpha", "cat_concurrence_closed"]
    assert len(doc["rows"]) == 2


def test_sweep_unwritable_path_exits_4(tmp_path):
    spec = write_spec(tmp_path, {"family": "two-mode-cat", "params": {"phi": 0.0}})
    assert main(["sweep", spec, "--axis", "alpha=0.5", "--output",
                 "cat_concurrence_closed", "--out",
                 str(tmp_path / "no" / "such" / "dir.csv")]) == 4


def test_reproduce_unknown_id_exits_2(tmp_path, capsys):
    assert main(["reproduce", "not-a-figure", "--out-dir", str(tmp_path)]) == 2
    assert "valid" in capsys.readouterr().err


def test_reproduce_thermal_region(tmp_path):
    assert main(["reproduce", "thermal-region", "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "thermal-region-manifest.json").read_text())
    assert manifest["figure"] == "thermal-region"
    data = (tmp_path / "thermal-region.csv").read_text().splitlines()
    rows = [l for l in data if not l.startswith("#")]
    assert rows[0] == "eta,alpha,thermal_threshold_closed"
    # threshold samples match the closed form
    eta, alpha, thr = (float(x) for x in rows[1].split(","))
    from hyqent import thermal_threshold
    assert thr == pytest.approx(thermal_threshold(alpha, eta), abs=1e-9)


def test_reproduce_wigner_cat_default_is_alpha2(tmp_path):
    assert main(["reproduce", "wigner-cat", "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "wigner-cat-manifest.json").read_text())
    files = {f["file"]: f for f in manifest["files"]}
    assert "wigner-cat-alpha2.csv" in files
    assert "wigner-cat-alpha6.csv" not in files  # heavy variant is flag-gated
    assert files["wigner-cat-alpha2.csv"]["min_w"] < 0


def test_measure_qubus_fidelity(tmp_path, capsys):
    spec = write_spec(tmp_path, {"family": "qubus",
                                 "params": {"alpha": 1.0, "theta": 0.1, "eta": 0.9}})
    assert main(["measure", spec, "--measure", "fidelity"]) == 0
    got = float(capsys.readouterr().out.splitlines()[0])
    assert got == pytest.approx(0.5 * (1 + np.exp(-0.1 * (1 - np.cos(0.1)))), abs=1e-12)


def test_sweep_missing_closed_form_parameter_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, {"family": "two-mode-cat", "params": {}})
    code = main(["sweep", spec, "--axis", "alpha=0.5,1.0", "--output",
                 "cat_concurrence_closed", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "phi" in capsys.readouterr().err


@pytest.mark.parametrize("axis, outputs, value", [
    ("alpha=0.5,nan", "thermal_s1_closed", "nan"),
    ("alpha=0.5,nan", "thermal_s1_closed,s1", "nan"),
    ("alpha=0.5,nan", "s1,thermal_s1_closed", "nan"),
    ("alpha=-inf,0.5", "thermal_threshold_closed", "-inf"),
    ("alpha=0:inf:3", "thermal_s1_closed", "inf"),
])
@pytest.mark.parametrize("workers", ["1", "3"])
def test_sweep_with_a_non_finite_axis_value_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch, axis, outputs, value, workers):
    import hyqent.cli

    def no_work(*args, **kwargs):
        raise AssertionError("the sweep did work")
    monkeypatch.setattr(hyqent.cli, "ProcessPoolExecutor", no_work)
    monkeypatch.setattr(hyqent.cli, "_sweep_chunk", no_work)
    spec = write_spec(tmp_path, {"family": "thermal-output", "params": {"eta": 0.7, "n_th": 0.1}})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", spec, "--axis", "n_th=0.1,0.2", "--axis", axis, "--output", outputs,
                 "--out", str(out), "--workers", workers]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: axis alpha: expected finite numbers, got {value}"]
    assert not out.exists()


@pytest.mark.parametrize("eta, shown", [
    (float("nan"), "nan"), (True, "True"), ("0.7", "'0.7'"), ([0.7, 0.0], "[0.7, 0.0]")])
def test_closed_form_spec_parameter_must_be_a_finite_real(tmp_path, capsys, eta, shown):
    spec = write_spec(tmp_path, {"family": "thermal-output", "params": {"eta": eta, "n_th": 0.1}})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", spec, "--axis", "alpha=0.5,1.0", "--output", "thermal_s1_closed",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: eta: expected a finite number, got {shown}"]
    assert not out.exists()


def test_classify_qubit_qumode_with_parsed_kets(tmp_path, capsys):
    doc = {"family": "qubit-qumode", "params": {
        "c": 0.5, "phi": 0.0,
        "ket0": {"kind": "displaced_squeezed", "alpha": 0.6, "r": 0.3},
        "ket1": {"kind": "displaced_squeezed", "alpha": -0.6, "r": 0.3}}}
    spec = write_spec(tmp_path, doc)
    assert main(["classify", spec]) == 0
    out = capsys.readouterr().out
    assert "pure-dv-like" in out and "2 x 2" in out
    bad = dict(doc)
    bad["params"] = dict(doc["params"], ket0={"kind": "nope"})
    spec = write_spec(tmp_path, bad, "bad.json")
    assert main(["classify", spec]) == 2


def test_classify_qubus_is_a_finite_mixture(tmp_path, capsys):
    spec = write_spec(tmp_path, {"family": "qubus",
                                 "params": {"alpha": 1.0, "theta": 0.2, "eta": 0.9}})
    assert main(["classify", spec]) == 0
    out = capsys.readouterr().out
    assert "classification: mixed-dv-like(2)" in out
    assert "effective dimensions: 3 x 2 x 2" in out


def test_total_loss_concurrence_is_zero(tmp_path, capsys):
    # eta = 0 leaves a qubit times the vacuum: effective dims (2, 1), C = 0
    spec = write_spec(tmp_path, {"family": "damped-binary-coherent",
                                 "params": {"alpha": 0.9, "eta": 0.0}})
    assert main(["measure", spec, "--measure", "concurrence"]) == 0
    assert float(capsys.readouterr().out.splitlines()[0]) == pytest.approx(0.0, abs=1e-12)


def test_total_loss_concurrence_is_exactly_zero(tmp_path, capsys):
    spec = write_spec(tmp_path, {"family": "damped-binary-coherent",
                                 "params": {"alpha": 0.9, "eta": 0.0}})
    assert main(["measure", spec, "--measure", "concurrence"]) == 0
    assert float(capsys.readouterr().out.splitlines()[0]) == 0.0


# one valid point per family
FAMILY_POINTS = {
    "two-mode-cat": {"alpha": 0.7, "phi": 1.0},
    "qubit-qumode": {},
    "binary-coherent": {"alpha": 0.9},
    "squeezed-binary-coherent": {"alpha": 0.9, "r": 0.4},
    "damped-binary-coherent": {"alpha": 0.9, "eta": 0.6},
    "qutrit-qumode": {"alpha": 0.9},
    "mixed-23": {"p": 0.4, "alpha": 0.9},
    "mixed-24": {"p": 0.4, "alpha": 0.9},
    "geometric-mixture": {"x": 0.5, "alpha": 0.6},
    "thermal-output": {"alpha": 0.9, "eta": 0.7, "n_th": 0.3},
    "ghz": {},
    "w": {},
    "tripartite-qqm": {"q": 0.5},
    "tripartite-qmm": {"q_phi": 0.3, "q_psi": 0.6},
    "jcm": {"alpha": 1.0, "varphi": 0.3},
    "qubus": {"alpha": 1.0, "theta": 0.2, "eta": 0.9},
}

# codes of the multi-site states (two qumodes; qumode bus and two qubits),
# which the site layout decides
PINNED_CODES = {
    ("two-mode-cat", "s1"): 3, ("two-mode-cat", "s2"): 3,
    ("two-mode-cat", "concurrence"): 0, ("two-mode-cat", "entropy"): 0,
    ("two-mode-cat", "negativity"): 0,
    ("qubus", "s1"): 3, ("qubus", "s2"): 3, ("qubus", "entropy"): 3,
    ("qubus", "concurrence"): 3, ("qubus", "tau_res"): 3, ("qubus", "purity"): 0,
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("measure", MEASURES)
def test_family_measure_pair_exits_cleanly(tmp_path, capsys, family, measure):
    spec = write_spec(tmp_path, {"family": family, "params": FAMILY_POINTS[family]})
    code = main(["measure", spec, "--measure", measure])
    out, err = capsys.readouterr()
    if code == 0:
        assert np.isfinite(float(out.splitlines()[0]))
    else:
        assert code in (2, 3)
        assert err.startswith("error: ")
    if (family, measure) in PINNED_CODES:
        assert code == PINNED_CODES[family, measure]


@pytest.mark.parametrize("family", ["binary-coherent", "thermal-output"])
@pytest.mark.parametrize("measure", ["s1", "s2"])
def test_moment_witness_with_overflowing_moments_exits_2(tmp_path, capsys, family, measure):
    # |alpha|^2 overflows, so the moments are not finite and the witness has no value
    spec = write_spec(tmp_path, {"family": family,
                                 "params": {**FAMILY_POINTS[family], "alpha": 1e160}})
    assert main(["measure", spec, "--measure", measure]) == 2
    out, err = capsys.readouterr()
    assert "nan" not in out
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_moment_witness_with_an_overflowing_minor_exits_2(tmp_path, capsys):
    # the s2 rows' moments are finite at alpha = 1e154, but their determinant is not
    spec = write_spec(tmp_path, {"family": "binary-coherent", "params": {"alpha": 1e154}})
    assert main(["measure", spec, "--measure", "s2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: principal minor is not finite")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("alpha", [1e78, 1e100, 1e150])
def test_s2_at_large_amplitudes_is_half_alpha_squared(tmp_path, capsys, alpha):
    # s2 = alpha^2 / 2 for the binary-coherent state; the rows of s2 reach second order only
    spec = write_spec(tmp_path, {"family": "binary-coherent", "params": {"alpha": alpha}})
    assert main(["measure", spec, "--measure", "s2"]) == 0
    assert float(capsys.readouterr().out.splitlines()[0]) == pytest.approx(alpha**2 / 2)


@pytest.mark.parametrize("doc, mode_sites", [
    ({"family": "qubus", "params": {"alpha": 1.0, "theta": 0.2, "eta": 0.9}}, 1),
    ({"family": "two-mode-cat", "params": {"alpha": 0.8, "phi": 0.3}}, 2)])
def test_classify_expands_each_mode_site_once(tmp_path, capsys, monkeypatch, doc, mode_sites):
    calls, expand = [], compression.ket_expansion
    monkeypatch.setattr(compression, "ket_expansion",
                        lambda kets: calls.append(kets) or expand(kets))
    assert main(["classify", write_spec(tmp_path, doc)]) == 0
    assert len(calls) == mode_sites
    assert "effective dimensions: " in capsys.readouterr().out


@pytest.mark.parametrize("workers", ["1", "3"])
def test_a_repeated_sweep_axis_exits_2_before_any_work(tmp_path, capsys, monkeypatch, workers):
    # a second alpha axis would overwrite the first at every point, under the first's column
    import hyqent.cli

    def no_work(*args, **kwargs):
        raise AssertionError("the sweep did work")
    monkeypatch.setattr(hyqent.cli, "ProcessPoolExecutor", no_work)
    monkeypatch.setattr(hyqent.cli, "_sweep_chunk", no_work)
    spec = write_spec(tmp_path, {"family": "binary-coherent", "params": {}})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", spec, "--axis", "alpha=0.1,0.2", "--axis", "alpha=0.9",
                 "--output", "concurrence", "--out", str(out), "--workers", workers]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: axis alpha is given more than once"]
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit_2_before_any_work(tmp_path, capsys, monkeypatch, workers):
    import hyqent.cli

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")
    monkeypatch.setattr(hyqent.cli, "ProcessPoolExecutor", no_pool)
    spec = write_spec(tmp_path, {"family": "binary-coherent", "params": {}})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", spec, "--axis", "alpha=0.1:1.0:5", "--output", "concurrence",
                 "--out", str(out), "--workers", workers]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and workers in err[0]
    assert not out.exists()
    figures = tmp_path / "figures"
    assert main(["reproduce", "cat-concurrence", "--out-dir", str(figures),
                 "--workers", workers]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and workers in err[0]
    assert not figures.exists()


def test_sweep_fallback_measures_the_states_the_stacked_build_made():
    # alpha = 1e-7 collapses the cat to one dimension per site, so the stacked concurrence
    # raises and the chunk is measured again point by point
    import hyqent.cli

    axes = [("alpha", np.array([0.6, 1.1, 1e-7, 0.9])), ("phi", np.array([0.0, 2.0]))]
    names, outputs = [name for name, _ in axes], ("concurrence",)
    grid = np.meshgrid(*[values for _, values in axes], indexing="ij")
    points = [tuple(p) for p in np.stack([g.ravel() for g in grid], axis=-1)]
    expected = []
    for point in points:
        try:
            expected.append(hyqent.cli.evaluate_output("concurrence", "two-mode-cat",
                                                       dict(zip(names, point))))
        except Exception as exc:
            expected.append(exc)
            break
    assert isinstance(expected[-1], Exception) and len(expected) == 5
    got = hyqent.cli._sweep_chunk(("two-mode-cat", {}, names, points, outputs))
    assert type(got) is type(expected[-1]) and str(got) == str(expected[-1])
    with pytest.raises(type(expected[-1])) as raised:
        hyqent.cli.run_sweep("two-mode-cat", {}, axes, outputs)
    assert str(raised.value) == str(expected[-1])


@pytest.mark.parametrize("family, axes, measure", [
    ("squeezed-binary-coherent", [("alpha", [0.3, 0.8, 1.2]), ("r", [0.0, 0.2, 0.5])],
     "concurrence"),
    ("qubit-qumode", [("c", [0.3, 0.6, 0.9]), ("phi", [0.0, 1.0, 2.0])], "negativity"),
])
def test_a_sweep_of_a_family_with_no_stacked_constructor_is_measured_stacked(
        monkeypatch, family, axes, measure):
    import hyqent.cli

    def alone(*args):
        raise AssertionError("a point was evaluated alone")
    builds, measured = [], []
    monkeypatch.setattr(hyqent.cli, "evaluate_output", alone)
    monkeypatch.setattr(hyqent.cli, "build_state",
                        lambda *args: builds.append(args) or build_state(*args))
    stack_measure = hyqent.cli._stack_measure
    monkeypatch.setattr(hyqent.cli, "_stack_measure",
                        lambda *args: measured.append(args) or stack_measure(*args))
    axes = [(name, np.array(values)) for name, values in axes]
    columns, rows = hyqent.cli.run_sweep(family, {}, axes, [measure])
    monkeypatch.undo()
    assert len(builds) == len(rows) == 9
    assert len(measured) < len(rows)  # one call per template stack
    for row in rows:
        alone = hyqent.cli.evaluate_output(measure, family, dict(zip(columns, row[:-1])))
        assert np.float64(row[-1]).tobytes() == np.float64(alone).tobytes()


@pytest.mark.parametrize("output, params, axis", [
    ("mixed24_s1_closed", {"p": 0}, "alpha=0.5,1e200"),
    ("cat_s1_closed", {"phi": 0.3}, "alpha=0.5,1e200"),
    ("thermal_s1_closed", {"eta": 0.7, "n_th": 0.1}, "alpha=0.5,1e200"),
    ("thermal_threshold_closed", {"eta": 0.7}, "alpha=0.5,1e200"),
    ("squeezed_s1_closed", {"r": 0.3}, "alpha=0.5,1e200"),
])
@pytest.mark.parametrize("workers", ["1", "3"])
def test_a_closed_form_that_yields_nan_exits_2(tmp_path, capsys, output, params, axis, workers):
    family = {"mixed24": "mixed-24", "cat": "two-mode-cat", "thermal": "thermal-output",
              "squeezed": "squeezed-binary-coherent"}[output.split("_")[0]]
    spec = write_spec(tmp_path, {"family": family, "params": params})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", spec, "--axis", axis, "--output", output, "--out", str(out),
                 "--workers", workers]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: output {output!r} is nan: its arithmetic overflowed or is undefined"]
    assert not out.exists()
