import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capdist import cli, estimator, examples
from capdist.channel import (MappingTable, QuadraticDistortion, SdmbcSpec,
                             SdmcSpec, receiver_spec, renormalize_rows,
                             spec_from_dict, spec_to_dict)
from capdist.errors import SpecValidationError


def small_spec():
    return examples.binary_multiplicative_spec(0.4)


def small_law():
    """small_spec's channel as a joint law P(y,z|x,s): y = s*x and z = y."""
    law = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for s in range(2):
            law[x, s, s * x, s * x] = 1.0
    return law


def small_law_with(*cells):
    """small_law with each (index, value) of `cells` written in."""
    law = small_law()
    for idx, value in cells:
        law[idx] = value
    return law


def joint_doc():
    """small_spec as a spec document with the joint law."""
    doc = spec_to_dict(small_spec())
    del doc["law_y"], doc["law_z"]
    return {**doc, "law": small_law().tolist()}


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(cli.BUILTINS))
def test_validate_accepts_builtin_examples(name, tmp_path):
    # construction validates: building each spec at its defaults (the
    # Gaussian ones on small grids) is the check; `gen` then round-trips it
    grids = {"gaussian": ",pam_points=2,noise_points=5,state_points=4",
             "gaussian-reduced": ",state_points=4"}
    spec, again = gen_and_load(name + grids.get(name, ""), tmp_path / "spec.json")
    assert again.labels == spec.labels
    assert_same_spec(again, spec)


@pytest.mark.parametrize("build, message", [
    (lambda: SdmcSpec(state_pmf=[[0.5, 0.5]], law=small_law(), distortion=np.eye(2)),
     "state_pmf: expected 1-D"),
    (lambda: SdmcSpec(state_pmf=[0.5, 0.5], law_y=np.full((2, 2, 2), 0.5),
                      law_z=np.full((3, 2, 2), 0.5), distortion=np.eye(2)),
     "disagree on (x,s) shape"),
    (lambda: SdmcSpec(state_pmf=[0.5, 0.5], law=small_law()), "spec needs a distortion"),
    (lambda: SdmcSpec(state_pmf=[0.5, 0.5], law=small_law(), distortion=np.eye(2),
                      cost=[0.0, 1.0, 2.0]), "cost: wrong shape"),
    (lambda: SdmcSpec(state_pmf=[0.5, 0.5], law=small_law()[..., 0], distortion=np.eye(2)),
     "law: expected 4-D"),
    (lambda: SdmcSpec(state_pmf=[1.0], law=small_law(), distortion=np.eye(2)),
     "law: state axis does not match state_pmf"),
    (lambda: SdmcSpec(state_pmf=[0.5, 0.5], law=small_law(), distortion=np.ones(2)),
     "distortion: expected a 2-D matrix"),
    (lambda: SdmcSpec(state_pmf=[0.5, 0.5], law=small_law(), distortion=-np.eye(2)),
     "distortion: negative distortion at (0, 0)"),
    # -inf is non-finite before it is negative, and a non-finite entry is
    # named before a negative one in an earlier row
    (lambda: SdmcSpec(state_pmf=[0.6, 0.4], law=small_law_with(((1, 0, 0, 0), -np.inf)),
                      distortion=np.eye(2)),
     "law row (x,s): non-finite entry at (1, 0, 0)"),
    (lambda: SdmcSpec(state_pmf=[0.6, 0.4],
                      law=small_law_with(((0, 0, 0, 0), -0.1), ((1, 1, 0, 0), np.nan)),
                      distortion=np.eye(2)),
     "law row (x,s): non-finite entry at (1, 1, 0)"),
    # finite entries whose sum overflows: the sum, not an entry, is at fault
    pytest.param(lambda: SdmcSpec(state_pmf=[1e308, 1e308], law=small_law(),
                                  distortion=np.eye(2)),
                 "state_pmf: sums to inf, not 1",
                 marks=pytest.mark.filterwarnings("ignore:overflow")),
    (lambda: dataclasses.replace(examples.binary_bc_spec(), joint_state_pmf=[0.5, 0.5]),
     "joint_state_pmf must be 2-D"),
    (lambda: dataclasses.replace(examples.binary_bc_spec(),
                                 law=examples.binary_bc_spec().law[..., 0]),
     "law: expected 6-D"),
    (lambda: dataclasses.replace(examples.binary_bc_spec(), joint_state_pmf=[[0.5, 0.5]]),
     "law: state axes do not match joint_state_pmf"),
    (lambda: dataclasses.replace(examples.binary_bc_spec(), distortion_2=np.eye(3)),
     "distortion_2: state axis does not match S2"),
    (lambda: spec_from_dict([small_spec()]), "must be an object"),
    (lambda: spec_from_dict({**spec_to_dict(small_spec()),
                             "distortion": {"kind": "cubic", "state_values": [0.0, 1.0],
                                            "estimate_values": [0.0, 1.0]}}),
     "unknown distortion kind 'cubic'"),
    (lambda: spec_to_dict(small_law()), "not a channel spec"),
    (lambda: MappingTable(np.zeros(3), 1), "mapping table must be 2-D"),
])
def test_validation_errors_name_their_fault(build, message):
    with pytest.raises(SpecValidationError) as info:
        build()
    assert message in str(info.value)


def test_state_pmf_must_normalize():
    with pytest.raises(SpecValidationError, match="state_pmf"):
        SdmcSpec(state_pmf=[0.5, 0.4], law=small_law(),
                 distortion=np.zeros((2, 2)))


def test_law_rows_must_normalize_with_coordinates():
    law = small_law()
    law[1, 0, 0, 0] += 0.25
    with pytest.raises(SpecValidationError, match=r"\(1, 0\)"):
        SdmcSpec(state_pmf=[0.6, 0.4], law=law, distortion=np.eye(2))
    bc = examples.binary_bc_spec(0.6, 0.5)
    law = np.array(bc.law)
    law[1, 0, 1, 0, 0, 0] += 0.25
    with pytest.raises(SpecValidationError, match=r"\(1, 0, 1\)"):
        SdmbcSpec(joint_state_pmf=bc.joint_state_pmf, law=law,
                  distortion_1=bc.distortion_1, distortion_2=bc.distortion_2)


def test_negative_probability_rejected():
    law = small_law()
    law[0, 0, 0, 0] = -0.1
    law[0, 0, 1, 1] = 1.1
    with pytest.raises(SpecValidationError, match="negative"):
        SdmcSpec(state_pmf=[0.6, 0.4], law=law, distortion=np.eye(2))
    # both marginals of this row are pmfs: only the joint as given shows it
    law = small_law()
    law[0, 0] = [[1.1, -0.1], [-0.1, 0.1]]
    with pytest.raises(SpecValidationError, match=r"law row \(x,s\): negative"):
        SdmcSpec(state_pmf=[0.6, 0.4], law=law, distortion=np.eye(2))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), sizes=st.tuples(*[st.integers(1, 4)] * 4))
def test_joint_law_is_stored_as_its_two_marginals(seed, sizes):
    rng = np.random.default_rng(seed)
    nx, ns, ny, nz = sizes
    joint = rng.dirichlet(np.ones(ny * nz), size=(nx, ns)).reshape(sizes)
    spec = SdmcSpec(state_pmf=rng.dirichlet(np.ones(ns)), law=joint,
                    distortion=np.zeros((ns, 1)))
    for got, want in ((spec.law_y, joint.sum(3)), (spec.law_z, joint.sum(2))):
        assert got.shape == want.shape and np.array_equal(got, want)
        assert not got.flags.writeable


@pytest.mark.parametrize("field", ["law", "law_y", "state_pmf", "cost"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_entries_rejected(field, value):
    # NaN passed every check (NaN < 0 and |NaN - 1| > atol are both false)
    # and ended in misleading solver errors
    base = small_spec()
    kw = dict(state_pmf=np.array(base.state_pmf), law_y=np.array(base.law_y),
              law_z=np.array(base.law_z), distortion=base.distortion,
              cost=np.array([0.0, 1.0]))
    if field == "law":
        del kw["law_y"], kw["law_z"]
        kw["law"] = small_law()
        kw["law"][1, 0, 0, 0] = value
    else:
        kw[field][(0,) * kw[field].ndim] = value
    with pytest.raises(SpecValidationError, match=f"{field}.*non-finite"):
        SdmcSpec(**kw)


def test_non_finite_broadcast_law_rejected():
    bc = examples.binary_bc_spec(0.6, 0.5)
    law = np.array(bc.law)
    law[0, 0, 0, 0, 0, 0] = np.nan
    with pytest.raises(SpecValidationError, match="non-finite"):
        SdmbcSpec(joint_state_pmf=bc.joint_state_pmf, law=law,
                  distortion_1=bc.distortion_1, distortion_2=bc.distortion_2)


@pytest.mark.parametrize("grid", ["state_values", "estimate_values"])
def test_quadratic_distortion_rejects_non_finite_values(grid):
    values = {"state_values": [0.0, 1.0], "estimate_values": [0.0, 1.0]}
    values[grid] = [0.0, np.nan]
    with pytest.raises(SpecValidationError, match=f"{grid}.*non-finite"):
        QuadraticDistortion(**values)


def test_distortion_shape_checked():
    with pytest.raises(SpecValidationError, match="distortion"):
        SdmcSpec(state_pmf=[0.6, 0.4], law=small_law(),
                 distortion=np.zeros((3, 2)))


def test_negative_cost_rejected():
    with pytest.raises(SpecValidationError, match="cost"):
        SdmcSpec(state_pmf=[0.6, 0.4], law=small_law(),
                 distortion=np.eye(2), cost=[0.0, -1.0])


def test_spec_needs_some_law():
    with pytest.raises(SpecValidationError, match="law"):
        SdmcSpec(state_pmf=[1.0], distortion=np.zeros((1, 1)))


def test_spec_rejects_both_law_forms():
    # the spec keeps only law_y and law_z, so a joint law must not vouch for
    # an unchecked pair of marginals given beside it
    spec = small_spec()
    bad = np.full((2, 2, 2), 0.9)
    with pytest.raises(SpecValidationError, match="both"):
        SdmcSpec(state_pmf=spec.state_pmf, law=small_law(), law_y=bad, law_z=bad,
                 distortion=spec.distortion)


def test_quadratic_distortion_requires_sorted_estimates():
    with pytest.raises(SpecValidationError, match="sorted"):
        QuadraticDistortion([0.0, 1.0], [1.0, 0.0])


def test_quadratic_distortion_matrix_agrees_with_lookup():
    qd = QuadraticDistortion([-1.0, 0.5, 2.0], [0.0, 1.0])
    m = qd.as_matrix()
    for s in range(3):
        for t in range(2):
            assert m[s, t] == qd.lookup(s, t)


def test_mapping_table_image_checked():
    with pytest.raises(SpecValidationError, match="codomain"):
        MappingTable(np.array([[0, 3]]), 2)


# ---------------------------------------------------------------------------
# renormalization
# ---------------------------------------------------------------------------

def test_renormalize_rows_fixes_small_drift():
    rows = np.array([[0.5, 0.5 + 5e-7], [0.25, 0.75]])
    out = renormalize_rows(rows)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-15)


def test_renormalize_rows_rejects_large_drift():
    with pytest.raises(SpecValidationError, match="off by more than"):
        renormalize_rows(np.array([[0.5, 0.6]]))


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------

def gen_and_load(builtin, path):
    """The builtin's spec and the spec `capdist gen` writes of it, read back
    as `--spec` reads a file."""
    assert cli.main(["gen", "--builtin", builtin, "--out", str(path)]) == 0
    again, _ = cli._load_json(path, "spec", spec_from_dict)
    name, params = cli._parse_builtin(builtin)
    return cli.BUILTINS[name](**params), again


def test_json_round_trip_sdmc(tmp_path):
    spec, again = gen_and_load("binary,q=0.4", tmp_path / "spec.json")
    assert np.array_equal(again.state_pmf, spec.state_pmf)
    assert np.array_equal(again.law_y, spec.law_y)
    assert np.array_equal(again.law_z, spec.law_z)
    assert np.array_equal(np.asarray(again.distortion),
                          np.asarray(spec.distortion))
    assert np.array_equal(again.cost, spec.cost)


def test_json_round_trip_factored_and_quadratic(tmp_path):
    spec, again = gen_and_load("gaussian,pam_points=2,noise_points=5,state_points=4",
                               tmp_path / "g.json")
    assert np.allclose(again.law_y, spec.law_y)
    assert np.allclose(again.law_z, spec.law_z)
    assert isinstance(again.distortion, QuadraticDistortion)
    assert np.allclose(again.distortion.state_values,
                       spec.distortion.state_values)
    assert np.allclose(again.cost, spec.cost)


def test_json_round_trip_sdmbc(tmp_path):
    bc, again = gen_and_load("binary-bc,q=0.6,gamma=0.5", tmp_path / "bc.json")
    assert isinstance(again, SdmbcSpec)
    assert np.array_equal(again.joint_state_pmf, bc.joint_state_pmf)
    assert np.array_equal(again.law, bc.law)


def _round_trip_spec(seed, sizes, form, quadratic, costly):
    rng = np.random.default_rng(seed)
    nx, ns, ny, nz = sizes
    if form == "broadcast":
        return SdmbcSpec(joint_state_pmf=rng.dirichlet(np.ones(ns * ns)).reshape(ns, ns),
                         law=rng.dirichlet(np.ones(ny * ny * nz), size=(ns, ns, nx))
                         .reshape(ns, ns, nx, ny, ny, nz),
                         distortion_1=rng.random((ns, 2)), distortion_2=rng.random((ns, 3)))
    if form == "joint":
        laws = {"law": rng.dirichlet(np.ones(ny * nz), size=(nx, ns)).reshape(nx, ns, ny, nz)}
    else:
        laws = {"law_y": rng.dirichlet(np.ones(ny), size=(nx, ns)),
                "law_z": rng.dirichlet(np.ones(nz), size=(nx, ns))}
    d = (QuadraticDistortion(rng.normal(size=ns), np.sort(rng.normal(size=ns + 1)))
         if quadratic else rng.random((ns, ns + 1)))
    return SdmcSpec(state_pmf=rng.dirichlet(np.ones(ns)), **laws, distortion=d,
                    cost=rng.random(nx) if costly else None)


def assert_same_spec(got, want):
    """got is a spec of want's type whose arrays are want's within 1e-15
    (the parser divides each law row and the state pmf by its sum, which
    moves entries by an ulp or two)."""
    assert type(got) is type(want)
    want, got = _spec_arrays(want), _spec_arrays(got)
    assert want.keys() == got.keys()
    for name in want:
        assert got[name].shape == want[name].shape, name
        assert np.max(np.abs(got[name] - want[name]), initial=0.0) <= 1e-15, name


def _spec_arrays(spec):
    """Every array a spec holds, by field name; a quadratic distortion by
    its two value grids."""
    out = {}
    for f in dataclasses.fields(spec):
        v = getattr(spec, f.name)
        if isinstance(v, QuadraticDistortion):
            out[f.name + ".state_values"] = v.state_values
            out[f.name + ".estimate_values"] = v.estimate_values
        elif v is not None and f.name != "labels":
            out[f.name] = v
    return out


@settings(derandomize=True, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), sizes=st.tuples(*[st.integers(1, 3)] * 4),
       form=st.sampled_from(["joint", "factored", "broadcast"]),
       quadratic=st.booleans(), costly=st.booleans())
def test_json_round_trip_property(seed, sizes, form, quadratic, costly):
    spec = _round_trip_spec(seed, sizes, form, quadratic, costly)
    assert_same_spec(spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))), spec)


def test_unknown_fields_rejected():
    doc = spec_to_dict(small_spec())
    doc["surprise"] = 1
    with pytest.raises(SpecValidationError, match="unknown spec fields"):
        spec_from_dict(doc)


def test_unknown_kind_rejected():
    with pytest.raises(SpecValidationError, match="kind"):
        spec_from_dict({"kind": "mystery"})


@pytest.mark.parametrize("doc, message", [
    ({"kind": "sdmc", "state_pmf": [1.0], "law": [[[[1.0]]]]}, "['distortion']"),
    ({"kind": "sdmc", "state_pmf": [1.0], "distortion": [[0.0]]}, "['law']"),
    ({"kind": "sdmc", "state_pmf": [1.0], "law_y": [[[1.0]]], "distortion": [[0.0]]},
     "['law_z']"),
    ({"kind": "sdmbc", "joint_state_pmf": [[1.0]], "distortion_1": [[0.0]],
      "distortion_2": [[0.0]]}, "['law']"),
    ({"kind": "sdmc", "state_pmf": [1.0], "law": [[[[1.0]]]],
      "distortion": {"kind": "quadratic", "state_values": [0.0]}}, "estimate_values"),
])
def test_missing_required_field_rejected(doc, message):
    # each once raised a bare KeyError
    with pytest.raises(SpecValidationError) as info:
        spec_from_dict(doc)
    assert message in str(info.value)


@pytest.mark.parametrize("marginals", [["law_y"], ["law_z"], ["law_y", "law_z"]])
def test_joint_law_with_marginal_laws_rejected(marginals):
    # the marginals were once dropped silently in favour of the joint law
    doc = joint_doc()
    marginal = spec_to_dict(small_spec())
    doc.update({name: marginal[name] for name in marginals})
    with pytest.raises(SpecValidationError, match="both a joint law and marginal laws"):
        spec_from_dict(doc)


def test_parser_renormalizes_within_tolerance():
    doc = joint_doc()
    doc["law"][0][0][0][0] += 5e-7
    spec = spec_from_dict(doc)
    for law in (spec.law_y, spec.law_z):
        assert np.allclose(law.sum(axis=-1), 1.0, atol=1e-12)


def test_parser_rejects_badly_normalized_law():
    doc = joint_doc()
    doc["law"][0][0][0][0] += 0.01
    with pytest.raises(SpecValidationError):
        spec_from_dict(doc)


# ---------------------------------------------------------------------------
# receiver views of a broadcast spec
# ---------------------------------------------------------------------------

def _broadcast_examples():
    return [examples.binary_bc_spec(0.6, 0.5), examples.flipped_bc_spec(0.6, 0.3),
            examples.dueck_bc_spec(0.75),
            examples.erasure_bc_spec(np.outer([0.8, 0.2], [0.88, 0.12]),
                                     np.outer([0.6, 0.4], [0.7, 0.3]))]


def test_receiver_spec_preserves_probability():
    for bc in _broadcast_examples():
        for k in (1, 2):
            view = receiver_spec(bc, k)       # validated on construction
            assert view.state_size == bc.joint_state_pmf.shape[k - 1]
            assert view.input_size == bc.input_size
            assert view.feedback_size == bc.feedback_size
            for law in (view.law_y, view.law_z):
                assert np.allclose(law.sum(axis=-1), 1.0, atol=1e-12)
            assert np.isclose(view.state_pmf.sum(), 1.0, atol=1e-12)


def test_receiver_spec_rejects_bad_receiver():
    with pytest.raises(ValueError):
        receiver_spec(examples.binary_bc_spec(0.6, 0.5), 3)


def _pair_state_reference(bc, k):
    """Receiver k's estimation problem on the pair state s1*|S2| + s2 and the
    pair output y1*|Y2| + y2, with d_k repeated along the other state."""
    s1, s2, nx, y1, y2, nz = bc.law.shape
    law = bc.law.transpose(2, 0, 1, 3, 4, 5).reshape(nx, s1 * s2, y1 * y2, nz)
    d = (np.repeat(bc.distortion_1, s2, axis=0) if k == 1
         else np.tile(bc.distortion_2, (s1, 1)))
    return SdmcSpec(state_pmf=bc.joint_state_pmf.ravel(), law=law, distortion=d)


def test_receiver_spec_estimator_matches_pair_state_reference():
    for bc in _broadcast_examples():
        for k in (1, 2):
            ours = estimator.build_estimator(receiver_spec(bc, k))
            ref = estimator.build_estimator(_pair_state_reference(bc, k))
            assert np.array_equal(ours.table, ref.table)
            assert np.max(np.abs(ours.cost - ref.cost)) <= 1e-15
