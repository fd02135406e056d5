"""Model container format: round trips and corruption handling."""

import numpy as np
import pytest

from cance.compress import AutoencoderModel, AeConfig
from cance.errors import ConfigError, ModelFormatError, ShapeError
from cance.nn.serialize import MAGIC, load_container, save_container
from cance.pipeline import load_model, save_model


@pytest.fixture
def container(tmp_path):
    path = tmp_path / "model.bin"
    rng = np.random.default_rng(0)
    arrays = {
        "weights": rng.standard_normal((3, 4)),
        "bias": rng.standard_normal(3),
    }
    save_container(path, "test", {"note": "x", "dims": [3, 4]}, arrays)
    return path, arrays


def test_round_trip_bit_identical(container):
    path, arrays = container
    kind, meta, loaded = load_container(path)
    assert kind == "test"
    assert meta == {"note": "x", "dims": [3, 4]}
    for name, arr in arrays.items():
        np.testing.assert_array_equal(loaded[name], arr)
        assert loaded[name].tobytes() == arr.tobytes()


def test_corrupted_magic_rejected(container):
    path, _ = container
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(ModelFormatError, match="checksum|magic"):
        load_container(path)


def test_wrong_version_rejected(container):
    path, _ = container
    raw = bytearray(path.read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")
    # keep the checksum consistent so the version check is what fires
    import hashlib

    body = bytes(raw[:-32])
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(ModelFormatError, match="version"):
        load_container(path)


def test_truncated_file_rejected(container):
    path, _ = container
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(ModelFormatError):
        load_container(path)


def test_flipped_payload_byte_fails_checksum(container):
    path, _ = container
    raw = bytearray(path.read_bytes())
    raw[-40] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ModelFormatError, match="checksum"):
        load_container(path)


def test_mismatched_declared_dims_rejected(tmp_path):
    import hashlib
    import json

    path = tmp_path / "model.bin"
    header = json.dumps(
        {"kind": "test", "meta": {},
         "arrays": [{"name": "w", "shape": [4, 4]}]},
        sort_keys=True,
    ).encode()
    payload = np.zeros(3, dtype="<f8").tobytes()  # declares 16 values, holds 3
    body = MAGIC + (1).to_bytes(4, "little") + len(header).to_bytes(8, "little")
    body += header + payload
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(ShapeError, match="declares"):
        load_container(path)


@pytest.mark.parametrize("doctor", [
    lambda h: h.pop("kind"),
    lambda h: h.pop("meta"),
    lambda h: h.pop("arrays"),
    lambda h: h.update(arrays={"w": [3]}),
    lambda h: h["arrays"][0].pop("name"),
    lambda h: h["arrays"][0].pop("shape"),
    lambda h: h["arrays"][0].update(shape=["3"]),
    lambda h: h["arrays"][0].update(shape=[-3]),
], ids=["no-kind", "no-meta", "no-arrays", "arrays-not-list", "no-name",
        "no-shape", "string-dim", "negative-dim"])
def test_malformed_header_rejected(container, doctor):
    import hashlib
    import json

    path, _ = container
    raw = path.read_bytes()
    header_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16 : 16 + header_len])
    doctor(header)
    text = json.dumps(header).encode()
    body = raw[:8] + len(text).to_bytes(8, "little") + text
    body += raw[16 + header_len : -32]
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(ModelFormatError, match="header|array entry"):
        load_container(path)


def test_autoencoder_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(1)
    config = AeConfig(latent_dim=3, hidden=(8,), epochs=2)
    model = AutoencoderModel.build(5, config, rng)
    # give running stats non-default values
    model.encoder.forward(rng.standard_normal((16, 5)), train=True)
    path = tmp_path / "ae.model"
    save_model(path, model)
    loaded, _ = load_model(path, "autoencoder")
    for a, b in zip(model.encoder.parameters(), loaded.encoder.parameters()):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(model.decoder.parameters(), loaded.decoder.parameters()):
        assert a.tobytes() == b.tobytes()
    bn_a = model.encoder.layers[-1]
    bn_b = loaded.encoder.layers[-1]
    assert bn_a.running_mean.tobytes() == bn_b.running_mean.tobytes()
    assert bn_a.running_var.tobytes() == bn_b.running_var.tobytes()
    x = rng.standard_normal((4, 5))
    np.testing.assert_array_equal(model.composite(x), loaded.composite(x))


def test_tampered_header_dims_rejected(tmp_path):
    import hashlib
    import json

    rng = np.random.default_rng(2)
    model = AutoencoderModel.build(4, AeConfig(latent_dim=2, hidden=(6,)), rng)
    path = tmp_path / "ae.model"
    save_model(path, model)
    raw = path.read_bytes()
    header_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16 : 16 + header_len])
    header["meta"]["encoder"][0]["in"] = 7  # contradicts the stored arrays
    new_header = json.dumps(header, sort_keys=True).encode()
    body = raw[:8] + len(new_header).to_bytes(8, "little") + new_header
    body += raw[16 + header_len : -32]
    path.write_bytes(body + hashlib.sha256(body).digest())
    # the shape check still fires, reported as a malformed file named by path
    with pytest.raises(ModelFormatError, match="ae.model: malformed") as info:
        load_model(path, "autoencoder")
    assert isinstance(info.value.__cause__, ShapeError)


@pytest.mark.parametrize("doctor, cause", [
    (lambda meta: meta["encoder"][-1].update(momentum=1.5), ConfigError),
    (lambda meta: meta.update(encoder=[]), ShapeError),
], ids=["momentum", "no-layers"])
def test_bad_layer_spec_is_a_malformed_model(tmp_path, doctor, cause):
    import hashlib
    import json

    rng = np.random.default_rng(3)
    model = AutoencoderModel.build(4, AeConfig(latent_dim=2, hidden=(6,)), rng)
    path = tmp_path / "ae.model"
    save_model(path, model)
    raw = path.read_bytes()
    header_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16 : 16 + header_len])
    doctor(header["meta"])
    new_header = json.dumps(header, sort_keys=True).encode()
    body = raw[:8] + len(new_header).to_bytes(8, "little") + new_header
    body += raw[16 + header_len : -32]
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(ModelFormatError, match="ae.model: malformed") as info:
        load_model(path, "autoencoder")
    assert isinstance(info.value.__cause__, cause)
