"""The loader `schema.read_document` uses builds the documents that
`yaml.SafeLoader`, the reference, builds from every input scenex writes or
reads in its tests and benchmark, whole, truncated and re-encoded."""
import pytest
import yaml

from perfbench import junction, workloads
from scenex import schema
from scenex.cli import EXIT_OK, main
from tests.test_cli import (
    FUZZ_ROSTER,
    ROSTER,
    TWO_MODEL_ROSTER,
    tracks_config,
    write_config,
    yaml_text,
)
from tests.test_map_model import TWO_LANE_MAP

LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])
# the shares of a document's text that TestFuzz keeps when it cuts one
CUTS = [k / 16 for k in range(16)]


def test_read_document_uses_libyaml_where_pyyaml_has_it():
    assert schema.LOADER is LOADERS[-1]


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """name -> the bytes of each map, roster and run config the test helpers,
    `scenex synth-scene` and perfbench write."""
    tmp = tmp_path_factory.mktemp("documents")
    paths = {}
    for name, make in (("synth", write_config), ("tracks", tracks_config)):
        (tmp / name).mkdir()
        cfg = make(tmp / name)[0]
        paths[f"{name}-run"] = cfg
        paths[f"{name}-roster"] = tmp / name / "roster.yaml"
    paths["tracks-map"] = tmp / "tracks" / "scene" / "map.yaml"
    for template in ("car_following", "merge", "crossing"):
        assert main(["synth-scene", "--template", template,
                     "--out", str(tmp / template)]) == EXIT_OK
        paths[f"{template}-map"] = tmp / template / "map.yaml"
    for name, workload in workloads.WORKLOADS.items():
        cfg = workloads.write_inputs(workload, 7, str(tmp / name))
        paths[f"{name}-run"] = cfg
        paths[f"{name}-roster"] = tmp / name / "roster.yaml"
    paths["junction-map"] = tmp / "sample-junction" / "map.yaml"
    docs = {name: open(path, "rb").read() for name, path in paths.items()}
    docs["junction-seed-3-map"] = junction.generate(3)[0].encode()
    for name, text in (("roster", ROSTER), ("two-model-roster", TWO_MODEL_ROSTER),
                       ("fuzz-roster", yaml_text(FUZZ_ROSTER)),
                       ("two-lane-map", TWO_LANE_MAP)):
        docs[name] = text.encode()
    return docs


def outcome(data, loader):
    """repr of the document, so that 1 and 1.0 differ, or the error class."""
    try:
        return repr(yaml.load(data, Loader=loader))
    except yaml.YAMLError:
        return yaml.YAMLError


def same_documents(data):
    first, *others = [outcome(data, loader) for loader in LOADERS]
    assert all(other == first for other in others)
    return first


def test_loaders_agree_on_whole_documents(documents):
    assert len(documents) == 20
    for name, data in documents.items():
        assert isinstance(same_documents(data), str), name


def test_loaders_agree_on_truncated_documents(documents):
    for data in documents.values():
        text = data.decode()
        for keep in CUTS:
            same_documents(text[:int(len(text) * keep)].encode())


def test_loaders_agree_on_utf16_with_a_byte_order_mark(documents):
    for data in documents.values():
        copy = data.decode().encode("utf-16")
        assert copy[:2] in (b"\xff\xfe", b"\xfe\xff")
        assert same_documents(copy) == same_documents(data)
