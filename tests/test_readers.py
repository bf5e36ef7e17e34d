"""Property tests of the file formats and their readers.

Finite arrays round-trip through the `.lat` container and its JSON twin,
models and bundles through their JSON files, and whatever bytes or text a
reader is given, the only exception it raises is InputFormatError (exit
code 3 at the command line). An array element that is not a JSON number
(a bool, a string, null, a list or an object) is refused, never converted.
Every JSON input reads the same with or without a UTF-8 BOM, and a command
that fails writes no file.
"""

import codecs
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from latentprior import cli
from latentprior.errors import InputFormatError, NumericalFailure
from latentprior.formats import (
    image_from_f64_bytes,
    image_to_f64_bytes,
    json_object,
    json_text,
    latents_from_bytes,
    latents_from_json,
    latents_to_bytes,
    latents_to_json,
    ppm_bytes,
    write_latents,
)
from latentprior.gaussian import fit_gaussian, model_from_json, model_to_json
from latentprior.generator import (
    GeneratorDims,
    bundle_from_json,
    bundle_to_json,
    init_generator,
)

# same examples on every run, nothing written to disk
properties = settings(database=None, deadline=None, derandomize=True)

finite_rows = arrays(np.float64, st.tuples(st.integers(0, 4), st.integers(0, 6)),
                     elements=st.floats(allow_nan=False, allow_infinity=False))

# headers a reader gets past, so the bytes after them are read too
_HEADERS = (b"", b"LATV", b"LATV\x01\x00\x00\x00")
any_bytes = st.tuples(st.sampled_from(_HEADERS), st.binary(max_size=64)).map(
    lambda parts: parts[0] + parts[1])

json_scalars = (st.none() | st.booleans() | st.integers(-2**70, 2**70)
                | st.floats() | st.text(max_size=4))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12)
# documents shaped like the JSON twin, with any values in its three fields
sizes = (st.integers(-2, 4) | json_scalars
         | st.sampled_from([2.0, math.inf, -math.inf, math.nan, 2**64]))
twin_like = st.fixed_dictionaries(
    {"rows": sizes, "dim": sizes,
     "values": st.lists(json_scalars, max_size=8) | json_values}).map(json.dumps)
any_text = st.text(max_size=64) | twin_like | json_values.map(json.dumps)

# every model array holds d or d * d values, so keep d small
samples = arrays(np.float64, st.tuples(st.integers(2, 12), st.integers(1, 6)),
                 elements=st.floats(-1e3, 1e3))
vectors = st.lists(json_scalars | st.just(10**400), max_size=16)
model_like = st.fixed_dictionaries(
    {"dim": sizes, "sample_count": sizes | st.just(10**400),
     "mean_v": vectors, "mean_w": vectors, "cov_v": vectors}).map(json.dumps)

# every element type JSON has other than a number
non_numbers = (st.booleans() | st.text(max_size=4) | st.none()
               | st.lists(st.floats(0, 1), max_size=2)
               | st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
_MODEL_ARRAYS = ("mean_v", "mean_w", "cov_v")

# dims up to their limits would draw up to 0.5 GB of weights; keep them small
small_dims = st.builds(
    lambda d, h, m, s, c, base: GeneratorDims(d, h, m, s, c, base << (s - 1)),
    st.integers(1, 16), st.integers(1, 16), st.integers(1, 3),
    st.integers(1, 4), st.integers(1, 8), st.integers(1, 2))
# small values, values past every dim limit, and values of other JSON types
dim_values = (st.integers(-2, 16) | st.sampled_from([2049, 10**18])
              | json_scalars.filter(lambda v: type(v) is not int))
dim_names = list(GeneratorDims.__dataclass_fields__)
bundle_like = st.fixed_dictionaries(
    {"seed": sizes | st.just(10**400),
     "dims": st.dictionaries(st.sampled_from(dim_names), dim_values)
     | st.fixed_dictionaries(dict.fromkeys(dim_names, dim_values))
     | json_values}).map(json.dumps)


@properties
@given(finite_rows)
def test_lat_bytes_round_trip_bit_for_bit(arr):
    data = latents_to_bytes(arr)
    back = latents_from_bytes(data)
    assert back.shape == arr.shape
    assert latents_to_bytes(back) == data


@properties
@given(finite_rows)
def test_json_twin_round_trips_every_value(arr):
    back = latents_from_json(latents_to_json(arr))
    assert back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()


def test_json_twin_keeps_the_sign_of_zero():
    text = latents_to_json([[-0.0, 0.0, 1.0, -2.5e-300]])
    assert text == ('{\n  "dim": 4,\n  "rows": 1,\n  "values": [\n    -0.0,\n'
                    '    0.0,\n    1.0,\n    -2.5e-300\n  ]\n}\n')
    assert list(np.signbit(latents_from_json(text))[0]) == [True, False, False, True]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_latents_writers_refuse_non_finite_values(bad):
    for write in (latents_to_bytes, latents_to_json):
        with pytest.raises(NumericalFailure, match="non-finite"):
            write([[bad, 1.0]])


@properties
@given(arrays(np.float64, st.integers(0, 12),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_raw_image_round_trips_bit_for_bit(image):
    data = image_to_f64_bytes(image)
    assert image_to_f64_bytes(image_from_f64_bytes(data, image.size)) == data


@properties
@given(samples)
def test_model_json_round_trips_byte_for_byte(arr):
    text = model_to_json(fit_gaussian(arr, arr[::-1]))
    assert model_to_json(model_from_json(text)) == text


@properties
@given(st.integers(0, 2**64), small_dims)
def test_bundle_json_round_trips_byte_for_byte(seed, dims):
    text = bundle_to_json(init_generator(seed, dims))
    assert bundle_to_json(bundle_from_json(text)) == text


def _replace_one(values, data, bad):
    """values with the element at a drawn index replaced by bad."""
    i = data.draw(st.integers(0, len(values) - 1))
    return values[:i] + [bad] + values[i + 1:]


@properties
@given(finite_rows.filter(lambda a: a.size > 0), non_numbers, st.data())
def test_latents_json_element_must_be_a_number(arr, bad, data):
    doc = json.loads(latents_to_json(arr))
    doc["values"] = _replace_one(doc["values"], data, bad)
    with pytest.raises(InputFormatError, match="JSON numbers"):
        latents_from_json(json.dumps(doc))


@properties
@given(samples, st.sampled_from(_MODEL_ARRAYS), non_numbers, st.data())
def test_model_json_element_must_be_a_number(arr, key, bad, data):
    doc = json.loads(model_to_json(fit_gaussian(arr, arr[::-1])))
    doc[key] = _replace_one(doc[key], data, bad)
    with pytest.raises(InputFormatError, match=f"{key} must be a flat list"):
        model_from_json(json.dumps(doc))


def test_text_and_bool_elements_are_not_converted():
    text = '{"rows": 1, "dim": 2, "values": ["1.5", true]}'
    with pytest.raises(InputFormatError, match="values must be a flat list"):
        latents_from_json(text)


def _only_input_format_error(read, arg, *rest):
    try:
        read(arg, *rest)
    except InputFormatError:
        pass


@properties
@given(any_bytes)
def test_latents_from_bytes_raises_only_input_format_error(data):
    _only_input_format_error(latents_from_bytes, data)


@properties
@given(any_text)
def test_latents_from_json_raises_only_input_format_error(text):
    _only_input_format_error(latents_from_json, text)


@properties
@given(any_bytes | any_text | model_like)
def test_model_from_json_raises_only_input_format_error(data):
    _only_input_format_error(model_from_json, data)


@properties
@given(any_bytes | any_text | bundle_like)
def test_bundle_from_json_raises_only_input_format_error(data):
    _only_input_format_error(bundle_from_json, data)


@properties
@given(any_bytes, st.integers(0, 8))
def test_image_from_f64_bytes_raises_only_input_format_error(data, pixels):
    _only_input_format_error(image_from_f64_bytes, data, pixels)


@properties
@given(any_bytes | any_text.map(str.encode)
       | st.binary(max_size=16).map(codecs.BOM_UTF8.__add__))
@example(b"[" * 100000)  # nesting past the recursion limit
@example(b"1" * 5000)  # an integer past int()'s digit limit
def test_json_object_raises_only_input_format_error(data):
    _only_input_format_error(json_object, data, "any")


@pytest.mark.parametrize("rows", ["1e400", "-1", "2.0", "true", '"2"'])
def test_rows_must_be_a_nonnegative_json_integer(rows):
    # -1 would pass reshape as a wildcard; 1e400 parses to inf
    text = f'{{"rows": {rows}, "dim": 2, "values": [1.0, 2.0, 3.0, 4.0]}}'
    with pytest.raises(InputFormatError, match="rows and dim"):
        latents_from_json(text)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_raw_image_rejected(bad):
    image = np.zeros(6)
    image[4] = bad
    with pytest.raises(NumericalFailure, match="non-finite"):
        image_to_f64_bytes(image)
    with pytest.raises(InputFormatError, match="non-finite"):
        image_from_f64_bytes(image.astype("<f8").tobytes(), 6)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ppm_refuses_a_non_finite_image(bad):
    image = np.zeros(12)
    image[7] = bad
    with pytest.raises(NumericalFailure, match="non-finite"):
        ppm_bytes(image, (2, 2, 3))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ppm_of_a_range_past_the_float_maximum():
    # max - min overflows to inf; the preview still spans [0, 255], warning-free
    image = np.array([-1e308, 1e308, 0.0, 1e308] * 3)
    pixels = np.frombuffer(ppm_bytes(image, (2, 2, 3))[-12:], dtype=np.uint8)
    assert pixels.tolist() == [0, 255, 128, 255] * 3


@properties
@given(st.integers(1, 4), st.integers(1, 4), st.floats(-1e300, 1e300), st.data())
def test_ppm_is_a_p6_header_and_three_bytes_a_pixel(h, w, value, data):
    constant = data.draw(st.booleans())
    image = np.full(h * w * 3, value) if constant else data.draw(
        arrays(np.float64, h * w * 3, elements=st.floats(-1e300, 1e300)))
    out = ppm_bytes(image, (h, w, 3))
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    assert out[:len(header)] == header
    assert len(out) == len(header) + 3 * h * w
    pixels = np.frombuffer(out[len(header):], dtype=np.uint8)
    if image.min() == image.max():  # a constant image maps to zeros
        assert not pixels.any()
    else:  # otherwise its range maps onto [0, 255]
        assert (pixels.min(), pixels.max()) == (0, 255)


@pytest.fixture(scope="module")
def json_inputs(tmp_path_factory):
    """A small generator, model, latents twin and config, each as a file."""
    root = tmp_path_factory.mktemp("json-inputs")
    assert cli.main(["init-gan", "--latent-dim", "4", "--hidden-dim", "8",
                     "--scales", "2", "--channels", "2", "--image-size", "4",
                     "--out", str(root / "gan")]) == 0
    assert cli.main(["fit-prior", "--bundle", str(root / "gan" / "bundle.json"),
                     "--samples", "50", "--out", str(root / "prior")]) == 0
    write_latents(root / "latents.json", np.arange(8.0).reshape(2, 4) / 8)
    (root / "config.json").write_text('{"samples": 40, "seed": 2}')
    return root


def _fit_with_config(root, path, out):
    assert cli.main(["fit-prior", "--bundle", str(root / "gan" / "bundle.json"),
                     "--config", str(path), "--out", str(out)]) == 0
    return (out / "model.json").read_bytes()


def _replay(root, path, out):
    cli.replay_manifest(path, out)
    return (out / "model.json").read_bytes()


def _loaded(name, to_text):
    """What a command loads from the input file ``name``, as text or bytes."""
    def read_as(root, path, out):
        model = {"model": root / "prior" / "model.json"}  # latents need one
        return to_text(cli._load({**model, name: path})[name])
    return read_as


# input -> (its file under json_inputs, what the package reads from it)
_JSON_INPUTS = {
    "bundle": ("gan/bundle.json", _loaded("bundle", bundle_to_json)),
    "model": ("prior/model.json", _loaded("model", model_to_json)),
    "latents": ("latents.json", _loaded("latents", np.ndarray.tobytes)),
    "config": ("config.json", _fit_with_config),
    "manifest": ("prior/manifest.json", _replay),
}


@pytest.mark.parametrize("name", list(_JSON_INPUTS))
def test_every_json_input_reads_the_same_with_a_bom(json_inputs, tmp_path, name):
    file_name, read_as = _JSON_INPUTS[name]
    path = json_inputs / file_name
    bom = tmp_path / "bom.json"
    bom.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert read_as(json_inputs, bom, tmp_path / "bom") == \
        read_as(json_inputs, path, tmp_path / "plain")


def test_a_run_failing_after_forming_its_files_writes_nothing(
        tmp_path, monkeypatch, capsys):
    def runner(config, inputs, threads):
        return ({"a.json": json_text({"a": 1.0}), "b.lat": latents_to_bytes([[1.0]])},
                {"bad": math.nan})
    monkeypatch.setitem(cli._COMMANDS, "init-gan",
                        replace(cli._COMMANDS["init-gan"], runner=runner))
    assert cli.main(["init-gan", "--out", str(tmp_path / "new" / "o")]) == 4
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert list(tmp_path.iterdir()) == []
