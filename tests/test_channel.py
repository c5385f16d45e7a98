import json

import numpy as np
import pytest

from capdist import channel, estimator, examples
from capdist.channel import (MappingTable, QuadraticDistortion, SdmbcSpec,
                             SdmcSpec, receiver_spec, renormalize_rows,
                             spec_from_dict, spec_to_dict, validate)
from capdist.errors import SpecValidationError


def small_spec():
    return examples.binary_multiplicative_spec(0.4)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_accepts_builtin_examples():
    validate(small_spec())
    validate(examples.erasure_spec(0.3))
    validate(examples.binary_bc_spec(0.6, 0.5))


def test_state_pmf_must_normalize():
    with pytest.raises(SpecValidationError, match="state_pmf"):
        SdmcSpec(state_pmf=[0.5, 0.4],
                 law=small_spec().law,
                 distortion=np.zeros((2, 2)))
        validate(SdmcSpec(state_pmf=[0.5, 0.4], law=small_spec().law,
                          distortion=np.zeros((2, 2))))


def test_law_rows_must_normalize_with_coordinates():
    law = np.array(small_spec().law)
    law[1, 0, 0, 0] += 0.25
    spec = SdmcSpec(state_pmf=[0.6, 0.4], law=law, distortion=np.eye(2))
    with pytest.raises(SpecValidationError, match=r"\(1, 0\)"):
        validate(spec)


def test_negative_probability_rejected():
    law = np.array(small_spec().law)
    law[0, 0, 0, 0] = -0.1
    law[0, 0, 1, 1] = 1.1
    spec = SdmcSpec(state_pmf=[0.6, 0.4], law=law, distortion=np.eye(2))
    with pytest.raises(SpecValidationError, match="negative"):
        validate(spec)


def test_distortion_shape_checked():
    spec = SdmcSpec(state_pmf=[0.6, 0.4], law=small_spec().law,
                    distortion=np.zeros((3, 2)))
    with pytest.raises(SpecValidationError, match="distortion"):
        validate(spec)


def test_negative_cost_rejected():
    spec = SdmcSpec(state_pmf=[0.6, 0.4], law=small_spec().law,
                    distortion=np.eye(2), cost=[0.0, -1.0])
    with pytest.raises(SpecValidationError, match="cost"):
        validate(spec)


def test_spec_needs_some_law():
    with pytest.raises(SpecValidationError, match="law"):
        SdmcSpec(state_pmf=[1.0], distortion=np.zeros((1, 1)))


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

def test_json_round_trip_sdmc(tmp_path):
    spec = small_spec()
    path = tmp_path / "spec.json"
    channel.dump_spec(spec, path)
    again = channel.load_spec(path)
    assert np.array_equal(again.state_pmf, spec.state_pmf)
    assert np.array_equal(again.law, spec.law)
    assert np.array_equal(np.asarray(again.distortion),
                          np.asarray(spec.distortion))
    assert np.array_equal(again.cost, spec.cost)


def test_json_round_trip_factored_and_quadratic(tmp_path):
    cfg = examples.GaussianQuantConfig(pam_points=2, noise_points=5,
                                       state_points=4)
    spec = examples.gaussian_quantized_spec(cfg)
    path = tmp_path / "g.json"
    channel.dump_spec(spec, path)
    again = channel.load_spec(path)
    assert again.law is None
    assert np.allclose(again.law_y, spec.law_y)
    assert np.allclose(again.law_z, spec.law_z)
    assert isinstance(again.distortion, QuadraticDistortion)
    assert np.allclose(again.distortion.state_values,
                       spec.distortion.state_values)
    assert np.allclose(again.cost, spec.cost)


def test_json_round_trip_sdmbc(tmp_path):
    bc = examples.binary_bc_spec(0.6, 0.5)
    path = tmp_path / "bc.json"
    channel.dump_spec(bc, path)
    again = channel.load_spec(path)
    assert isinstance(again, SdmbcSpec)
    assert np.array_equal(again.joint_state_pmf, bc.joint_state_pmf)
    assert np.array_equal(again.law, bc.law)


def test_unknown_fields_rejected():
    doc = spec_to_dict(small_spec())
    doc["surprise"] = 1
    with pytest.raises(SpecValidationError, match="unknown spec fields"):
        spec_from_dict(doc)


def test_unknown_kind_rejected():
    with pytest.raises(SpecValidationError, match="kind"):
        spec_from_dict({"kind": "mystery"})


def test_parser_renormalizes_within_tolerance():
    doc = spec_to_dict(small_spec())
    doc["law"][0][0][0][0] += 5e-7
    spec = spec_from_dict(doc)
    flat = spec.law.reshape(2, 2, -1)
    assert np.allclose(flat.sum(axis=-1), 1.0, atol=1e-12)


def test_parser_rejects_badly_normalized_law():
    doc = spec_to_dict(small_spec())
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
            view = receiver_spec(bc, k)
            validate(view)
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
